package stream

import (
	"io"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/regexpsym"
	"repro/internal/schema"
	"repro/internal/wgen"
)

// miniCastPair builds the smallest schema pair both walkers accept:
// root <comment/> with empty content under both source and target.
func miniCastPair(t *testing.T) (*schema.Schema, *schema.Schema) {
	t.Helper()
	alpha := fa.NewAlphabet()
	src := schema.New(alpha)
	se, _ := src.AddComplexType("SrcEmpty", regexpsym.Epsilon{})
	src.SetRoot("comment", se)
	src.MustCompile()
	dst := schema.New(alpha)
	de, _ := dst.AddComplexType("DstEmpty", regexpsym.Epsilon{})
	dst.SetRoot("comment", de)
	dst.MustCompile()
	return src, dst
}

// Both walkers must hold the document to XML well-formedness outside the
// root element: trailing or leading non-whitespace text is a rejection,
// not a silent accept, and a stray end tag is a structured error rather
// than a panic. These are regression tests for two seed bugs:
// `<a/>trailing garbage` validated, and an end tag with an empty stack
// indexed stack[-1]. The tree parser gives the same verdicts
// (TestParseDocumentWellFormedness in the root package).
func TestWellFormednessOutsideRoot(t *testing.T) {
	src, dst := miniCastPair(t)
	// Both walkers read through the xmlscan tokenizer, the only one left.
	t.Run("scanner", func(t *testing.T) {
		v := NewValidator(dst)
		c, err := NewCaster(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range wgen.WellFormednessMatrix() {
			if _, err := v.Validate(strings.NewReader(tc.Doc)); (err == nil) != tc.WellFormed {
				t.Errorf("validator %s: got err=%v, want valid=%v", tc.Name, err, tc.WellFormed)
			}
			if _, err := c.Validate(strings.NewReader(tc.Doc)); (err == nil) != tc.WellFormed {
				t.Errorf("caster %s: got err=%v, want valid=%v", tc.Name, err, tc.WellFormed)
			}
		}
	})
}

// A stray end tag must never escape as a panic from either walker even
// when fed through a reader that splits tokens across Read calls.
func TestStrayEndTagDoesNotPanic(t *testing.T) {
	src, dst := miniCastPair(t)
	v := NewValidator(dst)
	c, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{`</a>`, `</comment>`, `<comment/></comment>`, `  </comment>`} {
		if _, err := v.Validate(iotaReader(doc)); err == nil {
			t.Errorf("validator accepted %q", doc)
		}
		if _, err := c.Validate(iotaReader(doc)); err == nil {
			t.Errorf("caster accepted %q", doc)
		}
	}
}

// iotaReader yields the document one byte per Read call, exercising the
// scanner's refill paths around every token boundary.
func iotaReader(s string) *oneByteReader { return &oneByteReader{s: s} }

type oneByteReader struct {
	s string
	i int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	p[0] = r.s[r.i]
	r.i++
	return 1, nil
}
