package stream

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/wgen"
	"repro/internal/xsd"
)

func BenchmarkStreamCast500(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	data := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 11}))
	c, err := NewCaster(ps.Source1, ps.Target)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Validate(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamFull500(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	data := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 11}))
	v := NewValidator(ps.Target)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Validate(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// exp2Doc is an Experiment 2 document (Figure 3b): valid under Source2
// and, with every quantity below 100, under Target too. The cast cannot
// skim items, so every item is walked and every quantity re-checked.
func exp2Doc(items int) []byte {
	return wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: items, IncludeBillTo: true, MaxQuantity: 99, Seed: 11}))
}

func benchExp2Cast(b *testing.B, items int) {
	ps := wgen.NewPaperSchemas()
	data := exp2Doc(items)
	c, err := NewCaster(ps.Source2, ps.Target)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Validate(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamCastExp2_500(b *testing.B)  { benchExp2Cast(b, 500) }
func BenchmarkStreamCastExp2_2000(b *testing.B) { benchExp2Cast(b, 2000) }

// wideCatalog returns a scaled catalog pair whose root type permits 48
// distinct child labels, and a document that skips every third section,
// so sibling lookups both hit next to the previous match and jump.
func wideCatalog(tb testing.TB) (src, dst *schema.Schema, doc []byte) {
	const sections = 48
	alpha := fa.NewAlphabet()
	src = xsd.MustParseString(wgen.ScaledXSD(sections, true, 200), xsd.Options{Alpha: alpha})
	dst = xsd.MustParseString(wgen.ScaledXSD(sections, false, 100), xsd.Options{Alpha: alpha})
	var b bytes.Buffer
	b.WriteString("<catalog>")
	for i := 0; i < sections; i++ {
		if i%3 == 2 {
			continue
		}
		fmt.Fprintf(&b, "<section%d><title>t%d</title><note>n</note>", i, i)
		for k := 0; k < 4; k++ {
			fmt.Fprintf(&b, "<entry><sku>s%d-%d</sku><quantity>%d</quantity></entry>", i, k, 1+(i*7+k)%99)
		}
		fmt.Fprintf(&b, "</section%d>", i)
	}
	b.WriteString("</catalog>")
	return src, dst, b.Bytes()
}

// BenchmarkStreamCastWide casts through a 48-label root type.
func BenchmarkStreamCastWide(b *testing.B) {
	src, dst, data := wideCatalog(b)
	c, err := NewCaster(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Validate(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
