package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/xmlspace"
)

// ParseOptions controls XML parsing.
type ParseOptions struct {
	// KeepWhitespaceText retains text nodes that consist solely of
	// whitespace. By default they are dropped: in element-only content
	// models, inter-element whitespace is insignificant, and the paper's
	// trees have χ leaves only for genuine simple values.
	KeepWhitespaceText bool
}

// Parse reads an XML document from r and returns the root element as an
// ordered labeled tree. Comments, processing instructions and directives
// are ignored; namespaces are flattened to local names (abstract XML
// schemas in this reproduction are namespace-free, as in the paper).
func Parse(r io.Reader) (*Node, error) {
	return ParseWith(r, ParseOptions{})
}

// ParseWith is Parse with explicit options.
func ParseWith(r io.Reader, opts ParseOptions) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue // namespace declarations are not data
				}
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmltree: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmltree: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace or stray text outside the root
			}
			text := string(t)
			if !opts.KeepWhitespaceText && xmlspace.Blank(text) {
				continue
			}
			parent := stack[len(stack)-1]
			// Coalesce adjacent text (the decoder may split CDATA).
			if k := len(parent.Children); k > 0 && parent.Children[k-1].Kind == Text {
				parent.Children[k-1].Text += text
				continue
			}
			parent.AppendChild(NewText(text))
		case xml.Comment, xml.ProcInst, xml.Directive:
			// ignored
		}
	}
	if root == nil {
		return nil, errors.New("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, errors.New("xmltree: unexpected end of input")
	}
	return root, nil
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
