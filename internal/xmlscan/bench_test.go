package xmlscan_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/wgen"
	"repro/internal/xmlscan"
)

// BenchmarkSkimSubtree measures native skim throughput (MB/s) on the
// purchase orders the served cast skims: open the root with Next, then
// skim its whole subtree.
func BenchmarkSkimSubtree(b *testing.B) {
	for _, items := range []int{500, 2000} {
		data := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: items, IncludeBillTo: true, Seed: 11}))
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			r := bytes.NewReader(data)
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				s := xmlscan.Get(r)
				for {
					ev, err := s.Next()
					if err != nil || ev == xmlscan.EventEOF {
						b.Fatalf("no root element: %v", err)
					}
					if ev == xmlscan.EventStart {
						break
					}
				}
				res, err := s.SkimSubtree(xmlscan.SkimLimits{BaseOpen: s.Depth()})
				if err != nil || !res.Done {
					b.Fatalf("skim: done=%t err=%v", res.Done, err)
				}
				s.Release()
			}
		})
	}
}
