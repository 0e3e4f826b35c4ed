package revalidate

import (
	"io"
	"strings"

	"repro/internal/schema"
	"repro/internal/xmltree"
)

// Document is a parsed XML document: an ordered labeled tree whose leaves
// may carry simple (text) values.
type Document struct {
	root *xmltree.Node
}

// ParseDocument parses an XML document. Comments and processing
// instructions are discarded; namespaces are flattened to local names;
// whitespace-only text is dropped (insignificant in element content);
// other text outside the root element makes the document malformed.
func ParseDocument(r io.Reader) (*Document, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Document{root: root}, nil
}

// ParseDocumentString parses an XML document held in a string.
func ParseDocumentString(src string) (*Document, error) {
	return ParseDocument(strings.NewReader(src))
}

// NewDocument builds a document programmatically from element
// constructors; see Element and Text.
func NewDocument(root Elem) *Document {
	return &Document{root: root.n}
}

// WriteXML serializes the document (post-edit view: deleted subtrees are
// omitted). indent, if non-empty, pretty-prints.
func (d *Document) WriteXML(w io.Writer, indent string) error {
	return xmltree.WriteXML(w, d.root, indent)
}

// XML returns the document serialized without indentation.
func (d *Document) XML() string {
	return xmltree.XMLString(d.root)
}

// NodeCount returns the number of nodes (elements and text leaves).
func (d *Document) NodeCount() int { return d.root.Size() }

// Root returns a cursor on the document's root element.
func (d *Document) Root() Elem { return Elem{n: d.root} }

// Clone returns an independent deep copy of the document.
func (d *Document) Clone() *Document {
	return &Document{root: d.root.Clone()}
}

// Elem is a lightweight cursor over a document node. The zero value is
// invalid; obtain cursors from Document.Root, the navigation methods, or
// the Element/Text constructors.
type Elem struct {
	n *xmltree.Node
}

// Element constructs a new element node with the given children, for
// building documents programmatically or for insertion through an
// EditSession.
func Element(label string, children ...Elem) Elem {
	kids := make([]*xmltree.Node, len(children))
	for i, c := range children {
		kids[i] = c.n
	}
	return Elem{n: xmltree.NewElement(label, kids...)}
}

// Text constructs a text (simple value) leaf.
func Text(value string) Elem {
	return Elem{n: xmltree.NewText(value)}
}

// IsValid reports whether the cursor points at a node.
func (e Elem) IsValid() bool { return e.n != nil }

// IsText reports whether the node is a text leaf.
func (e Elem) IsText() bool { return e.n.IsText() }

// Label returns the element tag ("" for text leaves).
func (e Elem) Label() string { return e.n.Label }

// Value returns a text leaf's value, or the concatenated text content of
// an element.
func (e Elem) Value() string {
	if e.n.IsText() {
		return e.n.Text
	}
	return e.n.TextContent()
}

// Attr returns the value of the named attribute.
func (e Elem) Attr(name string) (string, bool) { return e.n.AttrValue(name) }

// NumChildren returns the number of children (including text leaves).
func (e Elem) NumChildren() int { return len(e.n.Children) }

// Child returns the i-th child.
func (e Elem) Child(i int) Elem { return Elem{n: e.n.Children[i]} }

// Children returns cursors on all children.
func (e Elem) Children() []Elem {
	out := make([]Elem, len(e.n.Children))
	for i, c := range e.n.Children {
		out[i] = Elem{n: c}
	}
	return out
}

// Parent returns the parent cursor (invalid for the root).
func (e Elem) Parent() Elem { return Elem{n: e.n.Parent} }

// First returns the first descendant element with the given label, in
// document order (the node itself included).
func (e Elem) First(label string) (Elem, bool) {
	var found *xmltree.Node
	e.n.Walk(func(n *xmltree.Node) bool {
		if found != nil {
			return false
		}
		if !n.IsText() && n.Label == label {
			found = n
			return false
		}
		return true
	})
	if found == nil {
		return Elem{}, false
	}
	return Elem{n: found}, true
}

// All returns all descendant elements with the given label, in document
// order (the node itself included).
func (e Elem) All(label string) []Elem {
	var out []Elem
	e.n.Walk(func(n *xmltree.Node) bool {
		if !n.IsText() && n.Label == label {
			out = append(out, Elem{n: n})
		}
		return true
	})
	return out
}

// Path returns an XPath-like location of the node, for diagnostics.
func (e Elem) Path() string { return schema.NodePath(e.n) }

// String renders the subtree as compact XML.
func (e Elem) String() string { return xmltree.XMLString(e.n) }
