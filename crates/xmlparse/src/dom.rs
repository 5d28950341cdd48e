//! Arena-based DOM: [`Document`], [`Node`], and the [`ElementRef`] query API.

use crate::error::XmlError;
use crate::writer::WriteOptions;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single attribute: qualified name (as written, possibly prefixed) and value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written in the document (e.g. `xsi:type`).
    pub name: String,
    /// Unescaped attribute value.
    pub value: String,
}

/// The payload of a [`Node`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with a (possibly prefixed) name and attributes.
    Element {
        /// Qualified name as written (e.g. `scl:Header`).
        name: String,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// Character data (entity references already expanded).
    Text(String),
    /// A CDATA section's raw contents.
    Cdata(String),
    /// A comment's contents (without `<!--`/`-->`).
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction {
        /// PI target (e.g. `xml-stylesheet`).
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

/// One node in the document tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
}

impl Node {
    /// The node's payload.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The node's parent, if any (the root element has none).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Child node ids in document order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }
}

/// Line/column (both 1-based) where a node's markup starts in parsed source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextPosition {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

/// A parsed or programmatically built XML document.
///
/// Nodes are stored in an arena and addressed by [`NodeId`]; the convenience
/// wrapper [`ElementRef`] provides ergonomic read-only traversal.
#[derive(Debug, Clone, Eq)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// Leading comments / PIs that appear before the root element.
    pub(crate) prolog: Vec<NodeId>,
    /// Source position per node, parallel to `nodes`; `None` for nodes built
    /// programmatically rather than parsed.
    pub(crate) positions: Vec<Option<TextPosition>>,
}

/// Positions are metadata about where markup happened to sit in one source
/// rendering; two documents with identical structure and content are equal
/// regardless of original layout (write → reparse must round-trip).
impl PartialEq for Document {
    fn eq(&self, other: &Document) -> bool {
        self.nodes == other.nodes && self.root == other.root && self.prolog == other.prolog
    }
}

impl Document {
    /// Parses an XML document from a string.
    ///
    /// # Errors
    ///
    /// Returns an [`XmlError`] with line/column information when the input is
    /// not well-formed.
    ///
    /// # Examples
    ///
    /// ```
    /// let doc = sgcr_xml::Document::parse("<a><b x=\"1\"/></a>")?;
    /// assert_eq!(doc.root_element().name(), "a");
    /// # Ok::<(), sgcr_xml::XmlError>(())
    /// ```
    pub fn parse(input: &str) -> Result<Document, XmlError> {
        crate::parser::parse_document(input)
    }

    /// Creates a new document whose root element has the given name.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut doc = sgcr_xml::Document::new("SCL");
    /// let root = doc.root_id();
    /// doc.set_attr(root, "version", "2007");
    /// assert!(doc.to_xml().contains("version=\"2007\""));
    /// ```
    pub fn new(root_name: &str) -> Document {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Element {
                    name: root_name.to_string(),
                    attributes: Vec::new(),
                },
                parent: None,
                children: Vec::new(),
            }],
            root: NodeId(0),
            prolog: Vec::new(),
            positions: vec![None],
        }
    }

    /// Id of the root element.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Read-only reference to the root element.
    pub fn root_element(&self) -> ElementRef<'_> {
        ElementRef {
            doc: self,
            id: self.root,
        }
    }

    /// Read-only reference to an arbitrary node known to be an element.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to an element node.
    pub fn element(&self, id: NodeId) -> ElementRef<'_> {
        assert!(
            matches!(self.nodes[id.index()].kind, NodeKind::Element { .. }),
            "node {id:?} is not an element"
        );
        ElementRef { doc: self, id }
    }

    /// The node stored at `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes in the arena (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds only the root element and nothing else.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.positions.push(None);
        id
    }

    pub(crate) fn push_node_at(&mut self, node: Node, pos: TextPosition) -> NodeId {
        let id = self.push_node(node);
        self.positions[id.index()] = Some(pos);
        id
    }

    /// Where `id`'s markup started in the parsed source, if this document was
    /// produced by [`Document::parse`]. Programmatically built nodes have no
    /// position.
    pub fn position(&self, id: NodeId) -> Option<TextPosition> {
        self.positions.get(id.index()).copied().flatten()
    }

    /// Appends a child element to `parent` and returns its id.
    pub fn add_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let id = self.push_node(Node {
            kind: NodeKind::Element {
                name: name.to_string(),
                attributes: Vec::new(),
            },
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Appends a text child to `parent` and returns its id.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        let id = self.push_node(Node {
            kind: NodeKind::Text(text.to_string()),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Appends a CDATA child to `parent` and returns its id.
    pub fn add_cdata(&mut self, parent: NodeId, data: &str) -> NodeId {
        let id = self.push_node(Node {
            kind: NodeKind::Cdata(data.to_string()),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Sets (or replaces) an attribute on an element node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an element.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element { attributes, .. } => {
                if let Some(a) = attributes.iter_mut().find(|a| a.name == name) {
                    a.value = value.to_string();
                } else {
                    attributes.push(Attribute {
                        name: name.to_string(),
                        value: value.to_string(),
                    });
                }
            }
            _ => panic!("set_attr on non-element node"),
        }
    }

    /// Serializes the document with default options (2-space indentation and
    /// an XML declaration).
    pub fn to_xml(&self) -> String {
        self.to_xml_with(&WriteOptions::default())
    }

    /// Serializes the document with explicit [`WriteOptions`].
    pub fn to_xml_with(&self, options: &WriteOptions) -> String {
        crate::writer::write_document(self, options)
    }
}

/// A read-only cursor over an element node, offering traversal and queries.
#[derive(Debug, Clone, Copy)]
pub struct ElementRef<'a> {
    doc: &'a Document,
    id: NodeId,
}

impl<'a> ElementRef<'a> {
    /// The element's arena id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The document this element belongs to.
    pub fn document(&self) -> &'a Document {
        self.doc
    }

    /// Where this element's `<` sat in the parsed source, if known.
    pub fn position(&self) -> Option<TextPosition> {
        self.doc.position(self.id)
    }

    /// 1-based source line of this element's start tag, if known.
    pub fn line(&self) -> Option<u32> {
        self.position().map(|p| p.line)
    }

    /// 1-based source column of this element's start tag, if known.
    pub fn column(&self) -> Option<u32> {
        self.position().map(|p| p.column)
    }

    fn node(&self) -> &'a Node {
        &self.doc.nodes[self.id.index()]
    }

    /// Qualified name as written (possibly prefixed).
    pub fn qualified_name(&self) -> &'a str {
        match &self.node().kind {
            NodeKind::Element { name, .. } => name,
            _ => unreachable!("ElementRef over non-element"),
        }
    }

    /// Local name: qualified name with any `prefix:` stripped.
    pub fn name(&self) -> &'a str {
        let q = self.qualified_name();
        match q.split_once(':') {
            Some((_, local)) => local,
            None => q,
        }
    }

    /// Namespace prefix if the name is prefixed.
    pub fn prefix(&self) -> Option<&'a str> {
        self.qualified_name().split_once(':').map(|(p, _)| p)
    }

    /// The element's attributes in document order.
    pub fn attributes(&self) -> &'a [Attribute] {
        match &self.node().kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => unreachable!("ElementRef over non-element"),
        }
    }

    /// Looks up an attribute value by exact (qualified) name.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        self.attributes()
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Looks up an attribute value, falling back to `default` if absent.
    pub fn attr_or(&self, name: &str, default: &'a str) -> &'a str {
        self.attr(name).unwrap_or(default)
    }

    /// Parses an attribute as `T`, returning `None` if absent or unparsable.
    pub fn attr_parse<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.attr(name).and_then(|v| v.trim().parse().ok())
    }

    /// The parent element, if any.
    pub fn parent(&self) -> Option<ElementRef<'a>> {
        let pid = self.node().parent?;
        match self.doc.nodes[pid.index()].kind {
            NodeKind::Element { .. } => Some(ElementRef {
                doc: self.doc,
                id: pid,
            }),
            _ => None,
        }
    }

    /// Iterator over child *elements* (skipping text/comments) in order.
    pub fn child_elements(&self) -> impl Iterator<Item = ElementRef<'a>> + '_ {
        let doc = self.doc;
        self.node()
            .children
            .iter()
            .filter_map(move |&cid| match doc.nodes[cid.index()].kind {
                NodeKind::Element { .. } => Some(ElementRef { doc, id: cid }),
                _ => None,
            })
    }

    /// First child element with the given local name.
    pub fn child(&self, local_name: &str) -> Option<ElementRef<'a>> {
        self.child_elements().find(|e| e.name() == local_name)
    }

    /// All child elements with the given local name, in document order.
    pub fn children_named(&self, local_name: &str) -> Vec<ElementRef<'a>> {
        self.child_elements()
            .filter(|e| e.name() == local_name)
            .collect()
    }

    /// Depth-first search for the first descendant element with the name.
    pub fn descendant(&self, local_name: &str) -> Option<ElementRef<'a>> {
        for child in self.child_elements() {
            if child.name() == local_name {
                return Some(child);
            }
            if let Some(found) = child.descendant(local_name) {
                return Some(found);
            }
        }
        None
    }

    /// All descendant elements with the name, in document order.
    pub fn descendants_named(&self, local_name: &str) -> Vec<ElementRef<'a>> {
        let mut out = Vec::new();
        self.collect_descendants(local_name, &mut out);
        out
    }

    fn collect_descendants(&self, local_name: &str, out: &mut Vec<ElementRef<'a>>) {
        for child in self.child_elements() {
            if child.name() == local_name {
                out.push(child);
            }
            child.collect_descendants(local_name, out);
        }
    }

    /// Concatenated text content of immediate text/CDATA children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for &cid in self.node().children.iter() {
            match &self.doc.nodes[cid.index()].kind {
                NodeKind::Text(t) => out.push_str(t),
                NodeKind::Cdata(t) => out.push_str(t),
                _ => {}
            }
        }
        out
    }

    /// Concatenated text content of the whole subtree.
    pub fn deep_text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for &cid in self.node().children.iter() {
            match &self.doc.nodes[cid.index()].kind {
                NodeKind::Text(t) | NodeKind::Cdata(t) => out.push_str(t),
                NodeKind::Element { .. } => ElementRef {
                    doc: self.doc,
                    id: cid,
                }
                .collect_text(out),
                _ => {}
            }
        }
    }

    /// Resolves a namespace prefix to its URI by walking `xmlns` declarations
    /// up the ancestor chain. `None` prefix resolves the default namespace.
    pub fn resolve_namespace(&self, prefix: Option<&str>) -> Option<&'a str> {
        let target = match prefix {
            Some(p) => format!("xmlns:{p}"),
            None => "xmlns".to_string(),
        };
        let mut cur = Some(*self);
        while let Some(e) = cur {
            if let Some(uri) = e.attr(&target) {
                return Some(uri);
            }
            cur = e.parent();
        }
        None
    }

    /// The namespace URI of this element (default namespace if unprefixed).
    pub fn namespace(&self) -> Option<&'a str> {
        self.resolve_namespace(self.prefix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let mut doc = Document::new("SCL");
        let root = doc.root_id();
        doc.set_attr(root, "xmlns", "http://www.iec.ch/61850/2003/SCL");
        let header = doc.add_element(root, "Header");
        doc.set_attr(header, "id", "demo");
        let sub = doc.add_element(root, "Substation");
        doc.set_attr(sub, "name", "S1");
        let vl = doc.add_element(sub, "VoltageLevel");
        doc.set_attr(vl, "name", "VL1");
        doc.add_text(vl, "hello");

        let r = doc.root_element();
        assert_eq!(r.name(), "SCL");
        assert_eq!(r.child("Header").unwrap().attr("id"), Some("demo"));
        assert_eq!(r.descendant("VoltageLevel").unwrap().text(), "hello");
        assert_eq!(
            r.descendant("VoltageLevel").unwrap().namespace(),
            Some("http://www.iec.ch/61850/2003/SCL")
        );
        assert_eq!(r.descendants_named("VoltageLevel").len(), 1);
    }

    #[test]
    fn set_attr_replaces() {
        let mut doc = Document::new("a");
        let root = doc.root_id();
        doc.set_attr(root, "x", "1");
        doc.set_attr(root, "x", "2");
        assert_eq!(doc.root_element().attr("x"), Some("2"));
        assert_eq!(doc.root_element().attributes().len(), 1);
    }

    #[test]
    fn prefixed_names() {
        let doc = Document::parse(r#"<p:a xmlns:p="urn:x"><p:b/></p:a>"#).expect("parse prefixed");
        let root = doc.root_element();
        assert_eq!(root.name(), "a");
        assert_eq!(root.prefix(), Some("p"));
        assert_eq!(root.namespace(), Some("urn:x"));
        assert_eq!(root.child("b").unwrap().qualified_name(), "p:b");
    }

    #[test]
    fn attr_parse_types() {
        let doc = Document::parse(r#"<a n="42" f="2.5" bad="zz"/>"#).unwrap();
        let r = doc.root_element();
        assert_eq!(r.attr_parse::<u32>("n"), Some(42));
        assert_eq!(r.attr_parse::<f64>("f"), Some(2.5));
        assert_eq!(r.attr_parse::<u32>("bad"), None);
        assert_eq!(r.attr_parse::<u32>("missing"), None);
    }
}
