package xmltree

import (
	"strings"
	"testing"
)

const poXML = `<?xml version="1.0"?>
<purchaseOrder>
  <shipTo>
    <name>Alice</name>
    <street>1 Main St</street>
  </shipTo>
  <items>
    <item>
      <productName>Widget</productName>
      <quantity>5</quantity>
    </item>
  </items>
</purchaseOrder>`

func TestParseBasic(t *testing.T) {
	root, err := ParseString(poXML)
	if err != nil {
		t.Fatal(err)
	}
	if root.Label != "purchaseOrder" {
		t.Fatalf("root = %q", root.Label)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	name := root.Children[0].Children[0]
	if name.Label != "name" || len(name.Children) != 1 ||
		name.Children[0].Kind != Text || name.Children[0].Text != "Alice" {
		t.Fatalf("name element parsed wrong: %s", name)
	}
	if !Equal(root, samplePO()) {
		t.Fatalf("parsed tree differs from expected:\n%s\n%s", root, samplePO())
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	root := MustParseString("<a> <b/> </a>")
	if len(root.Children) != 1 {
		t.Fatalf("whitespace text should be dropped, children = %d", len(root.Children))
	}
}

func TestParseCoalescesText(t *testing.T) {
	root := MustParseString("<a>one<![CDATA[two]]>three</a>")
	if len(root.Children) != 1 || root.Children[0].Text != "onetwothree" {
		t.Fatalf("text not coalesced: %s", root)
	}
}

func TestParseIgnoresCommentsAndPIs(t *testing.T) {
	root := MustParseString("<a><!-- c --><?pi x?><b/></a>")
	if len(root.Children) != 1 || root.Children[0].Label != "b" {
		t.Fatalf("comments/PIs should be ignored: %s", root)
	}
}

func TestParseNamespaceFlattening(t *testing.T) {
	root := MustParseString(`<x:a xmlns:x="urn:foo"><x:b/></x:a>`)
	if root.Label != "a" || root.Children[0].Label != "b" {
		t.Fatalf("namespaces should flatten to local names: %s", root)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a>",
		"<a></b>",
		"<a/><b/>",
		"text only",
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	root := MustParseString(poXML)
	out := XMLString(root)
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if !Equal(root, back) {
		t.Fatalf("round trip changed tree:\n%s\n%s", root, back)
	}
}

func TestSerializeIndented(t *testing.T) {
	root := samplePO()
	var b strings.Builder
	if err := WriteXML(&b, root, "  "); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "\n  <shipTo>") {
		t.Fatalf("expected indentation:\n%s", out)
	}
	if !strings.Contains(out, "<name>Alice</name>") {
		t.Fatalf("text elements should stay on one line:\n%s", out)
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(root, back) {
		t.Fatal("indented round trip changed tree")
	}
}

func TestSerializeSkipsTombstones(t *testing.T) {
	root := NewElement("a", NewElement("b"), NewElement("c"))
	root.Children[0].Delta = DeltaDelete
	out := XMLString(root)
	if strings.Contains(out, "<b") {
		t.Fatalf("tombstone serialized: %s", out)
	}
	if !strings.Contains(out, "<c/>") {
		t.Fatalf("live sibling missing: %s", out)
	}
}

func TestSerializeEscapesText(t *testing.T) {
	root := NewElement("a", NewText("x < y & z"))
	out := XMLString(root)
	if !strings.Contains(out, "x &lt; y &amp; z") {
		t.Fatalf("text not escaped: %s", out)
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if back.Children[0].Text != "x < y & z" {
		t.Fatalf("escape round trip broken: %q", back.Children[0].Text)
	}
}

func TestSelfClosingEmptyElements(t *testing.T) {
	root := NewElement("a", NewElement("b"))
	if XMLString(root) != "<a><b/></a>" {
		t.Fatalf("got %s", XMLString(root))
	}
}
