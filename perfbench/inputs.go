package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	revalidate "repro"
	"repro/internal/wgen"
)

// node is the benchmark's own document model: the generator builds it,
// serializes it for castd, and the edit workload keeps it as the committed
// state of the document it edits.
type node struct {
	label, text string
	kids        []*node
}

func elem(label string, kids ...*node) *node { return &node{label: label, kids: kids} }
func leaf(label, text string) *node          { return &node{label: label, text: text} }

func (n *node) clone() *node {
	c := &node{label: n.label, text: n.text, kids: make([]*node, len(n.kids))}
	for i, k := range n.kids {
		c.kids[i] = k.clone()
	}
	return c
}

// xml serializes the tree indented, with an XML declaration, the layout
// the paper's Table 2 sizes refer to.
func (n *node) xml() []byte {
	var b bytes.Buffer
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")
	n.write(&b, 0)
	return b.Bytes()
}

func (n *node) write(b *bytes.Buffer, depth int) {
	pad := strings.Repeat("  ", depth)
	if len(n.kids) == 0 {
		fmt.Fprintf(b, "%s<%s>%s</%s>\n", pad, n.label, n.text, n.label)
		return
	}
	fmt.Fprintf(b, "%s<%s>\n", pad, n.label)
	for _, k := range n.kids {
		k.write(b, depth+1)
	}
	fmt.Fprintf(b, "%s</%s>\n", pad, n.label)
}

// document builds a library Document with the same content. Built trees
// carry no edit marks, so each edit session starts from a clean state.
func (n *node) document() *revalidate.Document {
	return revalidate.NewDocument(n.elem())
}

func (n *node) elem() revalidate.Elem {
	if len(n.kids) == 0 {
		return revalidate.Element(n.label, revalidate.Text(n.text))
	}
	kids := make([]revalidate.Elem, len(n.kids))
	for i, k := range n.kids {
		kids[i] = k.elem()
	}
	return revalidate.Element(n.label, kids...)
}

// child returns the first child labelled label and its index, or -1.
func (n *node) child(label string) (*node, int) {
	for i, k := range n.kids {
		if k.label == label {
			return k, i
		}
	}
	return nil, -1
}

var (
	products = []string{"Lawnmower", "Baby Monitor", "Lapis Necklace", "Sturdy Shelves", "Garden Hose", "Desk Lamp"}
	streets  = []string{"Main St", "Oak Ave", "Maple Dr", "Elm Ct", "Airport Rd"}
	cities   = []string{"Yorktown", "Mill Valley", "Old Town", "Haifa", "Springfield"}
	persons  = []string{"Alice Smith", "Robert Smith", "Helen Zoe", "Oded S", "Mukund R"}
)

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func address(rng *rand.Rand, label string) *node {
	return elem(label,
		leaf("name", pick(rng, persons)),
		leaf("street", fmt.Sprintf("%d %s", 1+rng.Intn(999), pick(rng, streets))),
		leaf("city", pick(rng, cities)),
		leaf("state", pick(rng, []string{"NY", "CA", "PA", "VT", "MI"})),
		leaf("zip", fmt.Sprintf("%05d", 10000+rng.Intn(89999))),
		leaf("country", "US"))
}

// poItem is one item whose quantity lies in [1, 99], valid under every
// purchase-order schema the benchmark uses.
func poItem(rng *rand.Rand) *node {
	return elem("item",
		leaf("productName", pick(rng, products)),
		leaf("quantity", fmt.Sprint(1+rng.Intn(99))),
		leaf("USPrice", fmt.Sprintf("%d.%02d", 1+rng.Intn(500), rng.Intn(100))))
}

// purchaseOrder builds a Figure 2 purchase order with n items.
func purchaseOrder(rng *rand.Rand, n int, billTo bool) *node {
	po := elem("purchaseOrder", address(rng, "shipTo"))
	if billTo {
		po.kids = append(po.kids, address(rng, "billTo"))
	}
	items := elem("items")
	for i := 0; i < n; i++ {
		items.kids = append(items.kids, poItem(rng))
	}
	po.kids = append(po.kids, items)
	return po
}

// catalogEntry is one entry whose quantity lies in [1, 99], below every
// facet a churned target version carries.
func catalogEntry(rng *rand.Rand) *node {
	return elem("entry",
		leaf("sku", fmt.Sprintf("SKU-%06d", rng.Intn(1000000))),
		leaf("quantity", fmt.Sprint(1+rng.Intn(99))))
}

// catalog builds a document for wgen.ScaledXSD(sections, ...): every
// section with a title, a note and 1..4 entries, the counts dealt from a
// shuffled deck so every document of a size has the same number of
// elements. dropNote >= 0 omits that section's note, which the churned
// targets require.
func catalog(rng *rand.Rand, sections, dropNote int) *node {
	c := elem("catalog")
	deck := make([]int, sections)
	for i := range deck {
		deck[i] = 1 + i%4
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	for i := 0; i < sections; i++ {
		s := elem(fmt.Sprintf("section%d", i), leaf("title", pick(rng, products)))
		if i != dropNote {
			s.kids = append(s.kids, leaf("note", pick(rng, cities)))
		}
		for e := deck[i]; e > 0; e-- {
			s.kids = append(s.kids, catalogEntry(rng))
		}
		c.kids = append(c.kids, s)
	}
	return c
}

// schemaPair is a (source, target) pair of XSD texts with the edit shape
// its documents support.
type schemaPair struct {
	name     string
	src, dst string
	edits    editSpec
}

// Experiment 1 (Figure 1a -> Figure 2: billTo optional -> required) and
// Experiment 2 (quantity maxExclusive 200 -> 100) of the paper's §6.
var (
	skimPair = schemaPair{
		name: "exp1",
		src:  wgen.Figure2XSD(true, 100),
		dst:  wgen.Figure2XSD(false, 100),
		edits: editSpec{container: "items", repeated: "item", badMin: 100,
			optional: "billTo", anchor: "shipTo"},
	}
	checkPair = schemaPair{
		name:  "exp2",
		src:   wgen.Figure2XSD(false, 200),
		dst:   wgen.Figure2XSD(false, 100),
		edits: editSpec{container: "items", repeated: "item", badMin: 100},
	}
)

// churnPair is the schema-churn pair for n sections; q is the target's
// quantity facet (section i gets q+i), fresh per version. The churned
// documents' quantities stay below 100 <= q, so every version gives a
// document the same verdict as q = 100.
func churnPair(n, q int) schemaPair {
	return schemaPair{
		name: fmt.Sprintf("scaled%d", n),
		src:  wgen.ScaledXSD(n, true, 200),
		dst:  wgen.ScaledXSD(n, false, q),
		edits: editSpec{container: "section", repeated: "entry", badMin: 300,
			optional: "note", anchor: "title"},
	}
}

// reversion returns text as a new version of the same schema: an XML
// comment changes its content hash, so castd compiles the pair afresh, and
// nothing else.
func reversion(text string, k int) string {
	i := strings.Index(text, "<xsd:schema")
	return text[:i] + fmt.Sprintf("<!-- version %d -->\n", k) + text[i:]
}

// oracle loads a pair in process and answers verdicts by full validation
// against the target (Schema.ValidateFull), an engine independent of the
// cast paths under test.
type oracle struct {
	src, dst *revalidate.Schema
}

func newOracle(p schemaPair) (*oracle, error) {
	u := revalidate.NewUniverse()
	src, err := u.LoadXSDString(p.src)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s source: %w", p.name, err)
	}
	dst, err := u.LoadXSDString(p.dst)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s target: %w", p.name, err)
	}
	return &oracle{src: src, dst: dst}, nil
}

// verdict parses body, requires it to be valid under the source (the
// cast's precondition) and returns its validity under the target.
func (o *oracle) verdict(body []byte) (bool, error) {
	doc, err := revalidate.ParseDocument(bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("oracle: parse: %w", err)
	}
	if _, err := o.src.ValidateFull(doc); err != nil {
		return false, fmt.Errorf("oracle: generated document invalid under the source: %w", err)
	}
	_, err = o.dst.ValidateFull(doc)
	return err == nil, nil
}

// doc is one generated request body with its oracle verdict.
type doc struct {
	body  []byte
	size  int // items or catalog sections, for reporting
	valid bool
}

// checkDocs computes every document's expected verdict with the oracle
// and fails if it disagrees with what the generator intended.
func checkDocs(o *oracle, docs []doc) error {
	for i := range docs {
		v, err := o.verdict(docs[i].body)
		if err != nil {
			return err
		}
		if v != docs[i].valid {
			return fmt.Errorf("oracle: document %d (size %d): generator meant valid=%v, full validation says %v",
				i, docs[i].size, docs[i].valid, v)
		}
	}
	return nil
}

// poMix is the cast-* size mix: 30% each of 10, 100 and 500 items, 10% of
// 2000. The median falls inside the 100-item class and p99 inside the
// 2000-item class, so neither sits on a class boundary.
var poMix = []struct{ items, count int }{{10, 30}, {100, 30}, {500, 30}, {2000, 10}}

// poDocs generates the cast-* document pool. Exactly one document in ten of
// every size class is invalid under the target: for exp1 it omits billTo,
// for exp2 one quantity at a seeded position lies in [100, 199].
func poDocs(rng *rand.Rand, p schemaPair) []doc {
	var docs []doc
	for _, m := range poMix {
		for i := 0; i < m.count; i++ {
			bad := i%10 == 0
			billTo := true
			if bad && p.edits.optional != "" {
				billTo = false
			}
			po := purchaseOrder(rng, m.items, billTo)
			if bad && p.edits.optional == "" {
				items, _ := po.child("items")
				q, _ := items.kids[rng.Intn(len(items.kids))].child("quantity")
				q.text = fmt.Sprint(100 + rng.Intn(100))
			}
			docs = append(docs, doc{body: po.xml(), size: m.items, valid: !bad})
		}
	}
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	return docs
}
