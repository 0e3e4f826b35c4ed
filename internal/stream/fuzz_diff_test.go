package stream

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/wgen"
)

// diffSeeds seeds a differential fuzz target with the shared grammar-corner
// corpus.
func diffSeeds(f *testing.F) {
	for _, s := range wgen.GrammarCorners() {
		f.Add([]byte(s))
	}
}

// errClass buckets a walker error for differential comparison: the two
// tokenizer paths promise identical verdicts and identical *limit*
// classification, but not identical message text (the scanner words its
// syntax errors differently than encoding/xml).
func errClass(err error) string {
	if err == nil {
		return "accept"
	}
	var le *LimitError
	if errors.As(err, &le) {
		return "limit:" + le.Kind
	}
	return "reject"
}

// FuzzStreamCastDifferential runs every input through the streaming
// caster twice — once on the byte-level scanner, once on the retained
// encoding/xml path — and requires the same verdict, the same limit
// classification on rejects, and identical statistics on accepts. This is
// the executable form of the scanner's compatibility contract.
func FuzzStreamCastDifferential(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	cScan, err := NewCaster(ps.Source1, ps.Target)
	if err != nil {
		f.Fatal(err)
	}
	cStd, err := NewCaster(ps.Source1, ps.Target, WithEncodingXML())
	if err != nil {
		f.Fatal(err)
	}
	diffSeeds(f)
	lim := Limits{MaxDepth: 64, MaxElements: 10_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		stScan, errScan := cScan.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		stStd, errStd := cStd.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		if cs, cd := errClass(errScan), errClass(errStd); cs != cd {
			t.Fatalf("verdict divergence: scanner=%q (%v) encoding/xml=%q (%v) on %q",
				cs, errScan, cd, errStd, data)
		}
		if errScan == nil && stScan != stStd {
			t.Fatalf("stats divergence on accepted input:\nscanner:      %+v\nencoding/xml: %+v\non %q",
				stScan, stStd, data)
		}
	})
}

// FuzzStreamFullDifferential is FuzzStreamCastDifferential for the full
// streaming validator: both tokenizer paths must agree on verdict, limit
// class and accepted-document statistics, with no skimming involved.
func FuzzStreamFullDifferential(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	vScan := NewValidator(ps.Target)
	vStd := NewValidator(ps.Target, WithEncodingXML())
	diffSeeds(f)
	lim := Limits{MaxDepth: 64, MaxElements: 10_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		stScan, errScan := vScan.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		stStd, errStd := vStd.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		if cs, cd := errClass(errScan), errClass(errStd); cs != cd {
			t.Fatalf("verdict divergence: scanner=%q (%v) encoding/xml=%q (%v) on %q",
				cs, errScan, cd, errStd, data)
		}
		if errScan == nil && stScan != stStd {
			t.Fatalf("stats divergence on accepted input:\nscanner:      %+v\nencoding/xml: %+v\non %q",
				stScan, stStd, data)
		}
	})
}

// FuzzStreamFullValidate holds the full streaming validator to the same
// fault-containment contract FuzzStreamValidate holds the caster to: any
// input produces a verdict or an error under the configured limits —
// never a panic, never a hang, never a depth or element overrun.
func FuzzStreamFullValidate(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	v := NewValidator(ps.Target)
	diffSeeds(f)
	const maxDepth, maxElements = 64, 10_000
	lim := Limits{MaxDepth: maxDepth, MaxElements: maxElements}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := v.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		if st.MaxDepth >= maxDepth {
			t.Fatalf("depth limit not enforced: reached %d (limit %d)", st.MaxDepth, maxDepth)
		}
		if st.ElementsVisited > maxElements+1 {
			t.Fatalf("element limit not enforced: consumed %d (limit %d)", st.ElementsVisited, maxElements)
		}
		_ = err
	})
}
