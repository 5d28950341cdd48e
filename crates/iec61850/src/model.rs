//! The IEC 61850 data model hosted by a virtual IED: logical devices,
//! logical nodes, data objects, and functionally-constrained data attributes.

use crate::ber::{self, BerError, Element, Tag};
use std::fmt;
use std::sync::Arc;

/// Functional constraints (the subset the cyber range uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fc {
    /// Status information.
    ST,
    /// Measurands.
    MX,
    /// Control.
    CO,
    /// Configuration.
    CF,
    /// Set-points.
    SP,
    /// Description.
    DC,
}

impl Fc {
    /// Parses the two-letter mnemonic.
    pub fn parse(s: &str) -> Option<Fc> {
        Some(match s {
            "ST" => Fc::ST,
            "MX" => Fc::MX,
            "CO" => Fc::CO,
            "CF" => Fc::CF,
            "SP" => Fc::SP,
            "DC" => Fc::DC,
            _ => return None,
        })
    }
}

impl fmt::Display for Fc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Fc::ST => "ST",
            Fc::MX => "MX",
            Fc::CO => "CO",
            Fc::CF => "CF",
            Fc::SP => "SP",
            Fc::DC => "DC",
        };
        write!(f, "{s}")
    }
}

/// How deep [`DataValue::decode`] lets MMS structures nest before it
/// refuses the value. The deepest value the shipped models encode is a whole
/// measurement object such as `MMXU1$MX$PhV` (`PhV` → `phsA` → `cVal` →
/// `mag`, 4 levels); a peer's value nested past the limit is an error, not
/// a stack overflow.
pub const MAX_DATA_DEPTH: usize = 32;

/// A value of an IEC 61850 data attribute — the MMS `Data` choice subset
/// exchanged by the cyber range.
#[derive(Debug, Clone, PartialEq)]
pub enum DataValue {
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    Uint(u64),
    /// 32-bit float (measurements).
    Float(f32),
    /// Visible string.
    Str(String),
    /// Bit string with a bit count (quality, double-point positions).
    BitString {
        /// Number of valid bits.
        bits: u8,
        /// Bit data, MSB-first.
        data: Vec<u8>,
    },
    /// UTC timestamp in nanoseconds since the simulation epoch.
    Timestamp(u64),
    /// A structure of nested values.
    Struct(Vec<DataValue>),
}

impl DataValue {
    /// Double-point position "intermediate" (00).
    pub fn dbpos_intermediate() -> DataValue {
        DataValue::BitString {
            bits: 2,
            data: vec![0b0000_0000],
        }
    }

    /// Double-point position "off / open" (01).
    pub fn dbpos_off() -> DataValue {
        DataValue::BitString {
            bits: 2,
            data: vec![0b0100_0000],
        }
    }

    /// Double-point position "on / closed" (10).
    pub fn dbpos_on() -> DataValue {
        DataValue::BitString {
            bits: 2,
            data: vec![0b1000_0000],
        }
    }

    /// Interprets a 2-bit double-point value: `Some(true)` closed,
    /// `Some(false)` open, `None` intermediate/bad.
    pub fn as_dbpos(&self) -> Option<bool> {
        match self {
            DataValue::BitString { bits: 2, data } => match data.first()? >> 6 {
                0b01 => Some(false),
                0b10 => Some(true),
                _ => None,
            },
            _ => None,
        }
    }

    /// The boolean if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            DataValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A float view of `Float`/`Int`/`Uint`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            DataValue::Float(f) => Some(f64::from(*f)),
            DataValue::Int(i) => Some(*i as f64),
            DataValue::Uint(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The string if this is `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            DataValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// BER-encodes using the MMS `Data` context tags.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DataValue::Struct(fields) => ber::nest(out, Tag::context_constructed(2), |out| {
                for f in fields {
                    f.encode(out);
                }
            }),
            DataValue::Bool(b) => ber::write_tlv(out, Tag::context(3), &[u8::from(*b)]),
            DataValue::BitString { bits, data } => ber::nest(out, Tag::context(4), |out| {
                // The count of unused bits in the last byte leads.
                out.push((data.len() * 8).saturating_sub(*bits as usize) as u8);
                out.extend_from_slice(data);
            }),
            DataValue::Int(i) => ber::write_integer(out, Tag::context(5), *i),
            DataValue::Uint(u) => ber::write_unsigned(out, Tag::context(6), *u),
            DataValue::Float(f) => ber::write_float32(out, Tag::context(7), *f),
            DataValue::Str(s) => ber::write_tlv(out, Tag::context(10), s.as_bytes()),
            DataValue::Timestamp(ns) => ber::write_utc_time(out, Tag::context(17), *ns),
        }
    }

    /// Decodes one MMS `Data` element.
    ///
    /// # Errors
    ///
    /// A [`BerError`] when the element is malformed, including a structure
    /// nested more than [`MAX_DATA_DEPTH`] deep.
    pub fn decode(el: &Element<'_>) -> Result<DataValue, BerError> {
        DataValue::decode_in(el, 0)
    }

    /// Decodes `el`, which `depth` structures enclose: one call per level,
    /// so the depth limit bounds the stack a hostile value can take.
    fn decode_in(el: &Element<'_>, depth: usize) -> Result<DataValue, BerError> {
        match el.tag {
            t if t == Tag::context_constructed(2) => {
                if depth == MAX_DATA_DEPTH {
                    return Err(BerError::BadContent("structure nested too deep"));
                }
                let fields = el
                    .children()
                    .map(|child| DataValue::decode_in(&child?, depth + 1));
                Ok(DataValue::Struct(fields.collect::<Result<_, _>>()?))
            }
            t if t == Tag::context(3) => Ok(DataValue::Bool(el.as_bool()?)),
            t if t == Tag::context(4) => {
                let (unused, data) = el
                    .contents
                    .split_first()
                    .ok_or(BerError::BadContent("empty bitstring"))?;
                let bits = (data.len() * 8).saturating_sub(*unused as usize) as u8;
                Ok(DataValue::BitString {
                    bits,
                    data: data.to_vec(),
                })
            }
            t if t == Tag::context(5) => Ok(DataValue::Int(el.as_integer()?)),
            t if t == Tag::context(6) => Ok(DataValue::Uint(el.as_unsigned()?)),
            t if t == Tag::context(7) => Ok(DataValue::Float(el.as_float32()?)),
            t if t == Tag::context(10) => Ok(DataValue::Str(el.as_str()?.to_string())),
            t if t == Tag::context(17) => {
                Ok(DataValue::Timestamp(ber::decode_utc_time(el.contents)?))
            }
            other => Err(BerError::UnexpectedTag {
                expected: 0x85,
                found: other.0,
            }),
        }
    }
}

/// A reference to a data attribute: `LD/LN$FC$DO[$DA…]` (MMS item-id form).
///
/// # Examples
///
/// ```
/// use sgcr_iec61850::ObjectRef;
///
/// let r: ObjectRef = "IED1LD0/XCBR1$ST$Pos$stVal".parse().unwrap();
/// assert_eq!(r.ld, "IED1LD0");
/// assert_eq!(r.ln, "XCBR1");
/// assert_eq!(r.fc_str, "ST");
/// assert_eq!(r.path, vec!["Pos".to_string(), "stVal".to_string()]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    /// Logical device name.
    pub ld: String,
    /// Logical node name (prefix + class + instance, e.g. `XCBR1`).
    pub ln: String,
    /// Functional constraint mnemonic.
    pub fc_str: String,
    /// Data object / attribute path components.
    pub path: Vec<String>,
}

impl ObjectRef {
    /// The functional constraint, if recognized.
    pub fn fc(&self) -> Option<Fc> {
        Fc::parse(&self.fc_str)
    }

    /// Formats back to `LD/LN$FC$a$b` form.
    pub fn to_item_id(&self) -> String {
        let mut s = format!("{}/{}${}", self.ld, self.ln, self.fc_str);
        for p in &self.path {
            s.push('$');
            s.push_str(p);
        }
        s
    }
}

impl ObjectRef {
    /// Checks that `item_id` parses as an object reference, without
    /// allocating one.
    ///
    /// # Errors
    ///
    /// The message [`str::parse`] would return for `item_id`.
    pub fn validate(item_id: &str) -> Result<(), String> {
        Parts::parse(item_id).map(|_| ())
    }

    /// Whether an MMS client may write `item_id` with a plain write: an
    /// object reference under the set-point, configuration or control
    /// constraint (`SP`, `CF`, `CO`). Status and measured values are
    /// process values only their IED writes.
    pub fn client_writable(item_id: &str) -> bool {
        Parts::parse(item_id).is_ok_and(|p| matches!(p.fc, "SP" | "CF" | "CO"))
    }
}

impl std::str::FromStr for ObjectRef {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts = Parts::parse(s)?;
        Ok(ObjectRef {
            ld: parts.ld.to_string(),
            ln: parts.ln.to_string(),
            fc_str: parts.fc.to_string(),
            path: parts.path.map(str::to_string).collect(),
        })
    }
}

/// The borrowed parts of an item id `LD/LN$FC$a$b…`, each LN, FC and path
/// part present and non-empty.
struct Parts<'a> {
    ld: &'a str,
    ln: &'a str,
    fc: &'a str,
    /// At least one part.
    path: std::str::Split<'a, char>,
}

impl<'a> Parts<'a> {
    fn parse(s: &'a str) -> Result<Parts<'a>, String> {
        let (ld, rest) = s
            .split_once('/')
            .ok_or_else(|| format!("missing '/' in object reference {s:?}"))?;
        let mut parts = rest.split('$');
        let ln = parts.next().filter(|p| !p.is_empty()).ok_or("missing LN")?;
        let fc = parts.next().filter(|p| !p.is_empty()).ok_or("missing FC")?;
        if parts.clone().next().is_none() || parts.clone().any(str::is_empty) {
            return Err(format!("missing data object path in {s:?}"));
        }
        Ok(Parts {
            ld,
            ln,
            fc,
            path: parts,
        })
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_item_id())
    }
}

/// A handle to one leaf attribute of a [`DataModel`], returned by
/// [`DataModel::insert`]. Writing through it with [`DataModel::set`] skips
/// parsing and walking the item id, so the IED runtime resolves the leaves it
/// rewrites every sample once, when the model is built. A handle is
/// meaningful only to the model that issued it (and that model's clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafId(usize);

/// The named children of a tree node, in name order. A node has few
/// children, and a sorted vector of them is smaller and quicker to build
/// than a `BTreeMap`, which allocates room for eleven.
#[derive(Debug, Clone, PartialEq)]
struct Names<V>(Vec<(String, V)>);

impl<V> Default for Names<V> {
    fn default() -> Self {
        Names(Vec::new())
    }
}

impl<V> Names<V> {
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    fn get(&self, name: &str) -> Option<&V> {
        self.position(name).ok().map(|i| &self.0[i].1)
    }

    /// The child named `name`, inserted from `default` first if absent. The
    /// name is allocated only when it is inserted, and the vector grows by
    /// one: most nodes have one or two children.
    fn child(&mut self, name: &str, default: impl FnOnce() -> V) -> &mut V {
        let i = self.position(name).unwrap_or_else(|i| {
            self.0.reserve_exact(1);
            self.0.insert(i, (name.to_string(), default()));
            i
        });
        &mut self.0[i].1
    }

    fn names(&self) -> Vec<String> {
        self.0.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// A node in an IED's attribute tree.
#[derive(Debug, Clone, PartialEq)]
enum AttrNode {
    /// A leaf attribute: its value lives in the model's leaf table.
    Leaf(LeafId),
    /// A composite data object with named children.
    Composite(Names<AttrNode>),
}

impl AttrNode {
    fn get<'a>(&self, path: impl Iterator<Item = &'a str>) -> Option<&AttrNode> {
        let mut node = self;
        for part in path {
            match node {
                AttrNode::Composite(children) => node = children.get(part)?,
                AttrNode::Leaf(_) => return None,
            }
        }
        Some(node)
    }

    /// Converts the subtree to a (possibly nested) [`DataValue`], reading
    /// leaf values from `leaves`, the owning model's leaf table.
    fn to_value(&self, leaves: &[DataValue]) -> DataValue {
        match self {
            AttrNode::Leaf(id) => leaves[id.0].clone(),
            AttrNode::Composite(children) => DataValue::Struct(
                children
                    .0
                    .iter()
                    .map(|(_, child)| child.to_value(leaves))
                    .collect(),
            ),
        }
    }
}

/// LN name → FC → data object name → attribute node.
type LogicalDevice = Names<Names<Names<AttrNode>>>;

/// The structure of a [`DataModel`]: the IED name and the LD → LN → FC →
/// attribute tree whose leaves index the model's leaf table.
#[derive(Debug, Clone, PartialEq, Default)]
struct Tree {
    ied_name: String,
    /// LD name → device.
    devices: Names<LogicalDevice>,
}

impl Tree {
    fn resolve(&self, item_id: &str) -> Option<&AttrNode> {
        let mut parts = Parts::parse(item_id).ok()?;
        let root = self.devices.get(parts.ld)?.get(parts.ln)?.get(parts.fc)?;
        root.get(parts.path.next()?)?.get(parts.path)
    }
}

/// The full data model of one virtual IED.
///
/// The attribute tree holds the structure; leaf values live in one table
/// that the tree's leaves index. Item-id access
/// ([`read`](DataModel::read), [`write`](DataModel::write)) walks the tree
/// to a leaf; [`set`](DataModel::set) indexes the table directly.
///
/// The tree sits behind an [`Arc`]: a clone copies the leaf table and shares
/// the tree, so the models of one IED in many ranges hold one tree between
/// them and a value of each their own. [`insert`](DataModel::insert) on a
/// model whose tree is shared gives that model a copy of the tree first.
///
/// # Examples
///
/// ```
/// use sgcr_iec61850::{DataModel, DataValue};
///
/// let mut model = DataModel::new("IED1");
/// let pos = model.insert("LD0/XCBR1$ST$Pos$stVal", DataValue::dbpos_on());
/// let copy = model.clone();
/// model.set(pos, DataValue::dbpos_off());
/// assert_eq!(model.read("LD0/XCBR1$ST$Pos$stVal").unwrap().as_dbpos(), Some(false));
/// assert_eq!(copy.read("LD0/XCBR1$ST$Pos$stVal").unwrap().as_dbpos(), Some(true));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataModel {
    tree: Arc<Tree>,
    /// Leaf values, indexed by [`LeafId`].
    leaves: Vec<DataValue>,
}

impl DataModel {
    /// Creates an empty model for an IED.
    pub fn new(ied_name: &str) -> DataModel {
        DataModel {
            tree: Arc::new(Tree {
                ied_name: ied_name.to_string(),
                devices: Names::default(),
            }),
            leaves: Vec::new(),
        }
    }

    /// The IED name (MMS identity).
    pub fn ied_name(&self) -> &str {
        &self.tree.ied_name
    }

    /// Inserts (or replaces) a leaf attribute, creating intermediate nodes,
    /// and returns its handle. Re-inserting an existing leaf overwrites its
    /// value and returns the handle it already had.
    ///
    /// # Panics
    ///
    /// Panics if `item_id` does not parse as an object reference.
    pub fn insert(&mut self, item_id: &str, value: DataValue) -> LeafId {
        let parts = Parts::parse(item_id).expect("valid object reference");
        let tree = Arc::make_mut(&mut self.tree);
        let ld = tree.devices.child(parts.ld, Names::default);
        let ln = ld.child(parts.ln, Names::default);
        let mut children = ln.child(parts.fc, Names::default);
        let mut path = parts.path.peekable();
        while let Some(part) = path.next() {
            if path.peek().is_none() {
                if let Some(&AttrNode::Leaf(id)) = children.get(part) {
                    self.leaves[id.0] = value;
                    return id;
                }
                let id = LeafId(self.leaves.len());
                self.leaves.push(value);
                // A composite of that name is replaced by the leaf.
                *children.child(part, || AttrNode::Leaf(id)) = AttrNode::Leaf(id);
                return id;
            }
            let node = children.child(part, || AttrNode::Composite(Names::default()));
            if let AttrNode::Leaf(_) = node {
                // Replacing a leaf with a deeper path: rebuild as composite.
                *node = AttrNode::Composite(Names::default());
            }
            let AttrNode::Composite(next) = node else {
                unreachable!("a leaf was just replaced")
            };
            children = next;
        }
        unreachable!("a parsed object reference has a path")
    }

    /// Overwrites the value of the leaf `id` names.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this model (or the model it was
    /// cloned from).
    pub fn set(&mut self, id: LeafId, value: DataValue) {
        self.leaves[id.0] = value;
    }

    /// Reads an attribute (or whole data object as a struct).
    pub fn read(&self, item_id: &str) -> Option<DataValue> {
        self.tree
            .resolve(item_id)
            .map(|node| node.to_value(&self.leaves))
    }

    /// Writes a leaf attribute; returns `false` if the path does not exist
    /// or is not a leaf.
    pub fn write(&mut self, item_id: &str, value: DataValue) -> bool {
        match self.tree.resolve(item_id) {
            Some(&AttrNode::Leaf(id)) => {
                self.set(id, value);
                true
            }
            _ => false,
        }
    }

    /// Whether an item exists (leaf or composite).
    pub fn contains(&self, item_id: &str) -> bool {
        self.tree.resolve(item_id).is_some()
    }

    /// Logical device names.
    pub fn device_names(&self) -> Vec<String> {
        self.tree.devices.names()
    }

    /// Logical node names within a device.
    pub fn node_names(&self, ld: &str) -> Vec<String> {
        self.tree
            .devices
            .get(ld)
            .map(Names::names)
            .unwrap_or_default()
    }

    /// All leaf item-ids in deterministic order (for name lists / tests).
    pub fn leaf_item_ids(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (ld_name, ld) in &self.tree.devices.0 {
            for (ln_name, ln) in &ld.0 {
                for (fc, root) in &ln.0 {
                    for (do_name, node) in &root.0 {
                        collect_leaves(
                            node,
                            &format!("{ld_name}/{ln_name}${fc}${do_name}"),
                            &mut out,
                        );
                    }
                }
            }
        }
        out
    }
}

fn collect_leaves(node: &AttrNode, prefix: &str, out: &mut Vec<String>) {
    match node {
        AttrNode::Leaf(_) => out.push(prefix.to_string()),
        AttrNode::Composite(children) => {
            for (name, child) in &children.0 {
                collect_leaves(child, &format!("{prefix}${name}"), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::Reader;

    #[test]
    fn object_ref_parse_and_format() {
        let r: ObjectRef = "LD1/PTOC1$ST$Op$general".parse().unwrap();
        assert_eq!(r.fc(), Some(Fc::ST));
        assert_eq!(r.to_item_id(), "LD1/PTOC1$ST$Op$general");
        assert!("no-slash".parse::<ObjectRef>().is_err());
        assert!("LD/LN".parse::<ObjectRef>().is_err());
        assert!("LD/LN$ST".parse::<ObjectRef>().is_err());
    }

    #[test]
    fn model_insert_read_write() {
        let mut m = DataModel::new("IED1");
        m.insert("LD0/MMXU1$MX$TotW$mag$f", DataValue::Float(12.5));
        m.insert("LD0/XCBR1$ST$Pos$stVal", DataValue::dbpos_on());
        assert_eq!(
            m.read("LD0/MMXU1$MX$TotW$mag$f"),
            Some(DataValue::Float(12.5))
        );
        assert!(m.write("LD0/MMXU1$MX$TotW$mag$f", DataValue::Float(13.0)));
        assert_eq!(
            m.read("LD0/MMXU1$MX$TotW$mag$f"),
            Some(DataValue::Float(13.0))
        );
        assert!(!m.write("LD0/NOPE1$MX$TotW$mag$f", DataValue::Float(0.0)));
        assert!(!m.write("LD0/MMXU1$MX$TotW$mag", DataValue::Float(0.0)));
    }

    #[test]
    fn insert_returns_the_leaf_read_sees() {
        let mut m = DataModel::new("IED1");
        let w = m.insert("LD0/MMXU1$MX$TotW$mag$f", DataValue::Float(1.0));
        let q = m.insert("LD0/MMXU1$MX$TotW$q", DataValue::Str("good".into()));
        let pos = m.insert("LD0/XCBR1$ST$Pos$stVal", DataValue::dbpos_off());
        assert_ne!(w, q);
        m.set(w, DataValue::Float(2.5));
        m.set(pos, DataValue::dbpos_on());
        assert_eq!(
            m.read("LD0/MMXU1$MX$TotW$mag$f"),
            Some(DataValue::Float(2.5))
        );
        assert_eq!(
            m.read("LD0/MMXU1$MX$TotW$q"),
            Some(DataValue::Str("good".into()))
        );
        assert_eq!(
            m.read("LD0/XCBR1$ST$Pos$stVal"),
            Some(DataValue::dbpos_on())
        );
        // The struct read of the data object sees the handles' writes.
        m.set(q, DataValue::Str("invalid".into()));
        assert_eq!(
            m.read("LD0/MMXU1$MX$TotW"),
            Some(DataValue::Struct(vec![
                DataValue::Struct(vec![DataValue::Float(2.5)]),
                DataValue::Str("invalid".into()),
            ]))
        );
    }

    #[test]
    fn reinserting_a_leaf_keeps_its_id() {
        let mut m = DataModel::new("IED1");
        let id = m.insert("LD0/PTOC1$ST$Op$general", DataValue::Bool(false));
        m.insert("LD0/PTOC1$ST$Str$general", DataValue::Bool(false));
        assert_eq!(
            m.insert("LD0/PTOC1$ST$Op$general", DataValue::Bool(true)),
            id
        );
        assert_eq!(
            m.read("LD0/PTOC1$ST$Op$general"),
            Some(DataValue::Bool(true))
        );
        m.set(id, DataValue::Bool(false));
        assert_eq!(
            m.read("LD0/PTOC1$ST$Op$general"),
            Some(DataValue::Bool(false))
        );
        // An item-id write lands on the leaf the handle names.
        assert!(m.write("LD0/PTOC1$ST$Op$general", DataValue::Bool(true)));
        let mut copy = m.clone();
        // A clone carries the table, so the handle addresses the clone's leaf.
        copy.set(id, DataValue::Bool(false));
        assert_eq!(
            copy.read("LD0/PTOC1$ST$Op$general"),
            Some(DataValue::Bool(false))
        );
        assert_eq!(
            m.read("LD0/PTOC1$ST$Op$general"),
            Some(DataValue::Bool(true))
        );
        assert_eq!(
            m.read("LD0/PTOC1$ST$Str$general"),
            Some(DataValue::Bool(false))
        );
    }

    #[test]
    fn a_clone_keeps_its_own_values() {
        let mut a = DataModel::new("IED1");
        let f = a.insert("LD0/PTOC1$SP$StrVal$setMag$f", DataValue::Float(1.5));
        a.insert("LD0/PTOC1$ST$Op$general", DataValue::Bool(false));
        let mut b = a.clone();
        // The clone shares the tree, not the values.
        assert!(Arc::ptr_eq(&a.tree, &b.tree));
        a.set(f, DataValue::Float(2.5));
        assert!(a.write("LD0/PTOC1$ST$Op$general", DataValue::Bool(true)));
        assert_eq!(
            b.read("LD0/PTOC1$SP$StrVal$setMag$f"),
            Some(DataValue::Float(1.5))
        );
        assert_eq!(
            b.read("LD0/PTOC1$ST$Op$general"),
            Some(DataValue::Bool(false))
        );
        b.set(f, DataValue::Float(9.0));
        assert!(b.write("LD0/PTOC1$ST$Op$general", DataValue::Bool(false)));
        assert_eq!(
            a.read("LD0/PTOC1$SP$StrVal$setMag$f"),
            Some(DataValue::Float(2.5))
        );
        assert_eq!(
            a.read("LD0/PTOC1$ST$Op$general"),
            Some(DataValue::Bool(true))
        );
        assert!(Arc::ptr_eq(&a.tree, &b.tree), "set and write copy no tree");
    }

    #[test]
    fn inserting_into_a_shared_tree_copies_it_first() {
        let mut a = DataModel::new("IED1");
        let op = a.insert("LD0/PTOC1$ST$Op$general", DataValue::Bool(false));
        let mut b = a.clone();
        let before = a.leaf_item_ids();
        let str_val = b.insert("LD0/PTOC1$SP$StrVal$setMag$f", DataValue::Float(1.0));
        // Re-inserting an existing leaf of the now private tree keeps its id.
        assert_eq!(
            b.insert("LD0/PTOC1$ST$Op$general", DataValue::Bool(true)),
            op
        );
        assert!(!Arc::ptr_eq(&a.tree, &b.tree));
        assert_eq!(a.leaf_item_ids(), before);
        assert!(!a.contains("LD0/PTOC1$SP$StrVal$setMag$f"));
        assert_eq!(
            a.read("LD0/PTOC1$ST$Op$general"),
            Some(DataValue::Bool(false))
        );
        assert_eq!(
            b.leaf_item_ids(),
            vec![
                "LD0/PTOC1$SP$StrVal$setMag$f".to_string(),
                "LD0/PTOC1$ST$Op$general".to_string(),
            ]
        );
        b.set(str_val, DataValue::Float(2.0));
        assert_eq!(
            b.read("LD0/PTOC1$SP$StrVal$setMag$f"),
            Some(DataValue::Float(2.0))
        );
        assert_eq!(a.ied_name(), "IED1");
        assert_eq!(b.ied_name(), "IED1");
    }

    #[test]
    fn composite_read_as_struct() {
        let mut m = DataModel::new("IED1");
        m.insert("LD0/MMXU1$MX$TotW$mag$f", DataValue::Float(1.0));
        m.insert(
            "LD0/MMXU1$MX$TotW$q",
            DataValue::BitString {
                bits: 13,
                data: vec![0, 0],
            },
        );
        let v = m.read("LD0/MMXU1$MX$TotW").unwrap();
        assert!(matches!(v, DataValue::Struct(fields) if fields.len() == 2));
    }

    #[test]
    fn leaf_item_ids_sorted() {
        let mut m = DataModel::new("IED1");
        m.insert("LD0/XCBR1$ST$Pos$stVal", DataValue::Bool(true));
        m.insert("LD0/PTOC1$ST$Op$general", DataValue::Bool(false));
        let ids = m.leaf_item_ids();
        assert_eq!(
            ids,
            vec![
                "LD0/PTOC1$ST$Op$general".to_string(),
                "LD0/XCBR1$ST$Pos$stVal".to_string(),
            ]
        );
    }

    #[test]
    fn dbpos_helpers() {
        assert_eq!(DataValue::dbpos_on().as_dbpos(), Some(true));
        assert_eq!(DataValue::dbpos_off().as_dbpos(), Some(false));
        assert_eq!(DataValue::dbpos_intermediate().as_dbpos(), None);
    }

    #[test]
    fn data_value_ber_roundtrip() {
        let values = vec![
            DataValue::Bool(true),
            DataValue::Int(-42),
            DataValue::Uint(65536),
            DataValue::Float(2.5),
            DataValue::Str("EPIC/GIED1".into()),
            DataValue::dbpos_on(),
            DataValue::Timestamp(1_234_567_890_123_456_789),
            DataValue::Struct(vec![
                DataValue::Float(1.0),
                DataValue::Struct(vec![DataValue::Bool(false)]),
            ]),
        ];
        for v in values {
            let mut wire = Vec::new();
            v.encode(&mut wire);
            let mut reader = Reader::new(&wire);
            let el = reader.read_element().unwrap();
            let decoded = DataValue::decode(&el).unwrap();
            match (&v, &decoded) {
                // Timestamp fraction loses sub-2^-24-second precision.
                (DataValue::Timestamp(a), DataValue::Timestamp(b)) => {
                    assert!((*a as i128 - *b as i128).abs() < 100, "{a} vs {b}");
                }
                _ => assert_eq!(v, decoded),
            }
        }
    }
}
