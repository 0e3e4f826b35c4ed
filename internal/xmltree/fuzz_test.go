package xmltree_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/wgen"
	"repro/internal/xmlspace"
	"repro/internal/xmltree"
)

// refParse builds the tree Parse builds, tokenizing with encoding/xml
// instead of xmlscan; it is the tokenizer oracle FuzzParseDifferential
// holds Parse to. It reads raw tokens, so namespace declarations are
// recognized by their literal prefix as Parse recognizes them (Token would
// also resolve a prefix bound to the URI "xmlns" to that space), and it
// checks tag matching itself, comparing raw names as Token does. A leading
// byte-order mark, which encoding/xml reports as text and xmlscan skips,
// is stripped.
func refParse(r io.Reader) (*xmltree.Node, error) {
	dec := xml.NewDecoder(r)
	var root *xmltree.Node
	var stack []*xmltree.Node
	var open []xml.Name
	for first := true; ; first = false {
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := xmltree.NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Attrs = append(n.Attrs, xmltree.Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
			open = append(open, t.Name)
		case xml.EndElement:
			if len(open) == 0 || open[len(open)-1] != t.Name {
				return nil, errors.New("unmatched end element")
			}
			stack, open = stack[:len(stack)-1], open[:len(open)-1]
		case xml.CharData:
			text := string(t)
			if first {
				text = strings.TrimPrefix(text, "\uFEFF")
			}
			if xmlspace.Blank(text) {
				continue
			}
			if len(stack) == 0 {
				return nil, errors.New("text outside the root element")
			}
			parent := stack[len(stack)-1]
			if k := len(parent.Children); k > 0 && parent.Children[k-1].IsText() {
				parent.Children[k-1].Text += text
				continue
			}
			parent.AppendChild(xmltree.NewText(text))
		}
	}
	if root == nil {
		return nil, errors.New("no root element")
	}
	if len(stack) != 0 {
		return nil, errors.New("unexpected EOF")
	}
	return root, nil
}

// attrCorners are attribute shapes the tree keeps, renames or drops:
// namespace declarations in every position, prefixed names, names that
// split on no colon, references and line ends in values, single quotes.
var attrCorners = []string{
	`<a xmlns="urn:x" b="1"/>`,
	`<a xmlns:p="urn:p" p:b="1" c="2"/>`,
	`<a p:xmlns="v" c="2"/>`,
	`<p:a xmlns:p="urn:p" p:b="1" q:c="2"><p:d xml:lang="en"/></p:a>`,
	`<a xmlns:p="xmlns" p:b="kept"/>`,
	`<a xmlns:xmlns="u" xmlns:="v" b="1"/>`,
	`<a :b="1" c:="2"/>`,
	`<a b="&amp;&#x41;&#66;&lt;&quot;"/>`,
	"<a b=\"x\r\ny\rz\tw\"/>",
	`<a b='1' c='"' d="'"/>`,
	`<a b="1" b="2"/>`,
	`<a b = "1"	c="2" ></a>`,
	`<a b="<"/>`,
	`<a b="1"c="2"/>`,
}

// FuzzParseDifferential holds Parse, built on xmlscan, to refParse, built
// on encoding/xml: the same verdict, and on accepts equal trees — labels,
// attribute names and values, coalesced text. Parse reads each input
// whole and one byte per Read.
func FuzzParseDifferential(f *testing.F) {
	for _, doc := range wgen.GrammarCorners() {
		f.Add([]byte(doc))
	}
	for _, doc := range []string{wgen.Figure2XSD(true, 100), wgen.ScaledXSD(3, true, 200)} {
		f.Add([]byte(doc))
	}
	for _, doc := range attrCorners {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refParse(bytes.NewReader(data))
		readers := map[string]io.Reader{
			"whole":   bytes.NewReader(data),
			"onebyte": iotest.OneByteReader(bytes.NewReader(data)),
		}
		for name, r := range readers {
			got, err := xmltree.Parse(r)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s reader: Parse error %v, encoding/xml error %v on %q", name, err, wantErr, data)
			}
			if err == nil && !xmltree.Equal(got, want) {
				t.Fatalf("%s reader: trees differ on %q:\nParse:        %s\nencoding/xml: %s",
					name, data, xmltree.XMLString(got), xmltree.XMLString(want))
			}
		}
	})
}
