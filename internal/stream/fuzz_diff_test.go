package stream

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/schema"
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

// exp2Prolog and exp2Epilog frame an Experiment 2 document (Source2 →
// Target, quantity maxExclusive 200 → 100) around its items, so a seed
// names only the items it varies.
const (
	exp2Prolog = `<purchaseOrder><shipTo><name>a</name><street>b</street><city>c</city>` +
		`<state>d</state><zip>1</zip><country>US</country></shipTo><billTo><name>a</name>` +
		`<street>b</street><city>c</city><state>d</state><zip>1</zip><country>US</country>` +
		`</billTo><items>`
	exp2Epilog = `</items></purchaseOrder>`
	exp2Item   = `<item><productName>x</productName><quantity>5</quantity><USPrice>1.5</USPrice></item>`
)

// exp2Seeds are Experiment 2 documents that drive the checking walk into
// each of its outcomes: accepted, a value the target's facet rejects, and
// every kind of label the child dispatch tables lack.
var exp2Seeds = map[string]string{
	"valid": exp2Prolog + exp2Item + exp2Item + exp2Epilog,
	"quantity-out-of-range": exp2Prolog + exp2Item +
		`<item><productName>x</productName><quantity>150</quantity><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"unknown-label": exp2Prolog +
		`<item><productName>x</productName><bogus/><quantity>5</quantity><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"label-forbidden-by-parent": exp2Prolog +
		`<item><productName>x</productName><zip>1</zip><quantity>5</quantity><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"misordered-child": exp2Prolog +
		`<item><quantity>5</quantity><productName>x</productName><USPrice>1.5</USPrice></item>` + exp2Epilog,
	"text-under-element-only": exp2Prolog + exp2Item + `stray` + exp2Item + exp2Epilog,
}

// FuzzStreamCastDifferential runs every input through the streaming
// caster twice — once on the byte-level scanner, once on the retained
// encoding/xml path — and requires the same verdict, the same limit
// classification on rejects, and identical statistics on accepts. This is
// the executable form of the scanner's compatibility contract. Each input
// is cast under two pairs: Experiment 1 (Source1 → Target), where the
// cast skims almost everything, and Experiment 2 (Source2 → Target),
// where it walks every item through the child dispatch tables, which the
// encoding/xml path does not use.
func FuzzStreamCastDifferential(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	type pair struct{ scan, std *Caster }
	var pairs []pair
	for _, src := range []*schema.Schema{ps.Source1, ps.Source2} {
		cScan, err := NewCaster(src, ps.Target)
		if err != nil {
			f.Fatal(err)
		}
		cStd, err := NewCaster(src, ps.Target, WithEncodingXML())
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{cScan, cStd})
	}
	diffSeeds(f)
	for _, doc := range exp2Seeds {
		f.Add([]byte(doc))
	}
	lim := Limits{MaxDepth: 64, MaxElements: 10_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, p := range pairs {
			stScan, errScan := p.scan.ValidateContext(context.Background(), bytes.NewReader(data), lim)
			stStd, errStd := p.std.ValidateContext(context.Background(), bytes.NewReader(data), lim)
			if cs, cd := errClass(errScan), errClass(errStd); cs != cd {
				t.Fatalf("exp%d: verdict divergence: scanner=%q (%v) encoding/xml=%q (%v) on %q",
					i+1, cs, errScan, cd, errStd, data)
			}
			if errScan == nil && stScan != stStd {
				t.Fatalf("exp%d: stats divergence on accepted input:\nscanner:      %+v\nencoding/xml: %+v\non %q",
					i+1, stScan, stStd, data)
			}
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
