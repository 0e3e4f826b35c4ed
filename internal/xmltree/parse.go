package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/xmlscan"
	"repro/internal/xmlspace"
)

// Parse reads an XML document from r and returns the root element as an
// ordered labeled tree, tokenized by the pooled byte-level scanner
// (package xmlscan). Element labels and attribute names are local names
// (abstract XML schemas in this reproduction are namespace-free, as in
// the paper); namespace declarations (xmlns, xmlns:*) are not kept as
// attributes. Adjacent text runs are coalesced into one χ leaf and
// whitespace-only runs are dropped: in element-only content models
// inter-element whitespace is insignificant, and the paper's trees have χ
// leaves only for genuine simple values. Comments, processing
// instructions and the doctype are ignored. Text outside the root
// element, other than whitespace, makes the document malformed.
func Parse(r io.Reader) (*Node, error) {
	sc := xmlscan.Get(r)
	defer sc.Release()
	sc.CaptureAttrs()
	var b builder
	var root *Node
	// open holds the open elements; kids holds the children collected so
	// far for all of them, each element's from its from index on.
	type openElem struct {
		n    *Node
		from int
	}
	var open []openElem
	var kids []*Node
	for {
		ev, err := sc.Next()
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch ev {
		case xmlscan.EventEOF:
			if root == nil {
				return nil, errors.New("xmltree: no root element")
			}
			return root, nil
		case xmlscan.EventStart:
			n := b.node()
			n.Label = b.intern(sc.Name())
			for i := 0; i < sc.NumAttrs(); i++ {
				name, local, value := sc.Attr(i)
				if local > 0 && string(name[:local-1]) == "xmlns" || string(name[local:]) == "xmlns" {
					continue // namespace declarations are not data
				}
				n.Attrs = append(n.Attrs, Attr{Name: b.intern(name[local:]), Value: string(value)})
			}
			if len(open) == 0 {
				if root != nil {
					return nil, errors.New("xmltree: multiple root elements")
				}
				root = n
			} else {
				n.Parent = open[len(open)-1].n
				kids = append(kids, n)
			}
			open = append(open, openElem{n, len(kids)})
		case xmlscan.EventEnd:
			top := open[len(open)-1]
			top.n.Children = b.children(kids[top.from:])
			open, kids = open[:len(open)-1], kids[:top.from]
		case xmlscan.EventText:
			text := sc.Text()
			if xmlspace.Blank(text) {
				continue
			}
			if len(open) == 0 {
				return nil, errors.New("xmltree: text outside the root element")
			}
			// Coalesce adjacent runs (CDATA sections and comments split
			// text into several events).
			top := open[len(open)-1]
			if k := len(kids); k > top.from && kids[k-1].Kind == Text {
				kids[k-1].Text += string(text)
				continue
			}
			n := b.node()
			n.Kind, n.Text, n.Parent = Text, string(text), top.n
			kids = append(kids, n)
		}
	}
}

// builder carves one parse's nodes and child slices out of shared chunks,
// so a document costs a few large allocations rather than one per node
// plus a growing slice per element, and interns element and attribute
// names, which repeat across a document. A chunk stays reachable while
// any node carved from it is.
type builder struct {
	nodes []Node
	ptrs  []*Node
	names map[string]string
}

const maxChunk = 1024

func (b *builder) node() *Node {
	if len(b.nodes) == cap(b.nodes) {
		b.nodes = make([]Node, 0, min(2*cap(b.nodes)+16, maxChunk))
	}
	b.nodes = b.nodes[:len(b.nodes)+1]
	return &b.nodes[len(b.nodes)-1]
}

// children returns a copy of kids whose capacity equals its length, so
// appending to one element's children never writes into another's.
func (b *builder) children(kids []*Node) []*Node {
	if len(kids) == 0 {
		return nil
	}
	if cap(b.ptrs)-len(b.ptrs) < len(kids) {
		b.ptrs = make([]*Node, 0, max(len(kids), min(2*cap(b.ptrs)+16, maxChunk)))
	}
	from := len(b.ptrs)
	b.ptrs = append(b.ptrs, kids...)
	return b.ptrs[from:len(b.ptrs):len(b.ptrs)]
}

func (b *builder) intern(name []byte) string {
	if s, ok := b.names[string(name)]; ok {
		return s
	}
	if b.names == nil {
		b.names = make(map[string]string)
	}
	s := string(name)
	b.names[s] = s
	return s
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// MustParseString is ParseString that panics on error; for tests and
// embedded documents.
func MustParseString(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// WriteXML serializes the subtree rooted at n as XML text. Modifications
// are projected away first (DeltaDelete subtrees are skipped; other nodes
// serialize with their current labels/values), so the output is the
// document *after* edits. indent, if non-empty, pretty-prints with that
// unit (text-bearing elements stay on one line).
func WriteXML(w io.Writer, n *Node, indent string) error {
	sw := &stickyWriter{w: w}
	writeNode(sw, n, indent, 0)
	if indent != "" && sw.err == nil {
		sw.WriteString("\n")
	}
	return sw.err
}

// XMLString renders the subtree as an XML string (no indentation).
func XMLString(n *Node) string {
	var b strings.Builder
	_ = WriteXML(&b, n, "")
	return b.String()
}

type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) WriteString(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

func writeNode(w *stickyWriter, n *Node, indent string, depth int) {
	if n.Delta == DeltaDelete {
		return
	}
	pad := ""
	if indent != "" {
		if depth > 0 {
			pad = "\n" + strings.Repeat(indent, depth)
		}
		w.WriteString(pad)
	}
	if n.Kind == Text {
		w.WriteString(escapeText(n.Text))
		return
	}
	w.WriteString("<")
	w.WriteString(n.Label)
	for _, a := range n.Attrs {
		w.WriteString(" ")
		w.WriteString(a.Name)
		w.WriteString(`="`)
		w.WriteString(escapeText(a.Value))
		w.WriteString(`"`)
	}
	// Count serializable children.
	live := 0
	textOnly := true
	for _, c := range n.Children {
		if c.Delta == DeltaDelete {
			continue
		}
		live++
		if c.Kind != Text {
			textOnly = false
		}
	}
	if live == 0 {
		w.WriteString("/>")
		return
	}
	w.WriteString(">")
	if textOnly || indent == "" {
		for _, c := range n.Children {
			if c.Delta == DeltaDelete {
				continue
			}
			writeNode(w, c, "", 0)
		}
	} else {
		for _, c := range n.Children {
			writeNode(w, c, indent, depth+1)
		}
		w.WriteString("\n" + strings.Repeat(indent, depth))
	}
	w.WriteString("</")
	w.WriteString(n.Label)
	w.WriteString(">")
}

func escapeText(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}
