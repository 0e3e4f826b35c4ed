package wgen

import "strings"

// GrammarCorners is the shared seed corpus of the tokenizer fuzz targets:
// documents that steer a fuzzer into the XML grammar's corners (CDATA,
// character and entity references, comments and PIs inside skimmed
// subtrees, directives) and into well-formedness rejects (trailing
// garbage, stray end tags, unclosed elements). The first two are small
// Figure 2 purchase orders, with and without billTo.
func GrammarCorners() []string {
	po := func(bill bool, seed int64) string {
		return string(POXMLBytes(PODocument(PODocOptions{Items: 5, IncludeBillTo: bill, MaxQuantity: 99, Seed: seed})))
	}
	valid := po(true, 1)
	return []string{
		valid,
		po(false, 2),
		valid[:len(valid)/2],
		// Grammar corners inside a skimmed subtree.
		strings.Replace(valid, "<shipTo>", "<shipTo><!-- inside a skim -->", 1),
		strings.Replace(valid, "<city>", "<city><![CDATA[ <raw> ]]>", 1),
		strings.Replace(valid, "<street>", "<street>&amp;&#65;&#x42;", 1),
		strings.Replace(valid, "<shipTo>", "<shipTo><?pi data?>", 1),
		// Prolog, doctype, entities, char refs, CDATA at top level.
		`<?xml version="1.0" encoding="UTF-8"?><purchaseOrder/>`,
		`<!DOCTYPE purchaseOrder [<!-- inner -->]><purchaseOrder/>`,
		`<a>&lt;&gt;&apos;&quot;&#xD800;</a>`,
		`<a><![CDATA[]]></a>`,
		`<a><![CDATA[no close`,
		// Well-formedness regressions.
		`<purchaseOrder/>trailing garbage`,
		`</purchaseOrder>`,
		`<purchaseOrder></purchaseOrder></purchaseOrder>`,
		"\uFEFF<purchaseOrder/>",
		"<purchaseOrder/>\uFEFF",
		// Structural hostility.
		strings.Repeat(`<shipTo>`, 200),
		`<a b="&#34;" c='&#39;'/>`,
		"",
		"\xff\xfe\x00<not xml",
	}
}

// WellFormedCase is one document of the well-formedness matrix.
type WellFormedCase struct {
	Name       string
	Doc        string
	WellFormed bool
}

// WellFormednessMatrix holds XML well-formedness outside the root element
// <comment/>: whitespace, comments, PIs and a leading byte-order mark may
// surround it; other text, a second root, a trailing byte-order mark and
// stray or mismatched end tags may not. Every consumer of XML bytes — the
// streaming walkers and the tree parser alike — must give these verdicts.
func WellFormednessMatrix() []WellFormedCase {
	return []WellFormedCase{
		{"plain root", `<comment/>`, true},
		{"ws around root", " \n\t<comment></comment>\r\n ", true},
		{"comment and pi around root", `<?p d?><!-- a --><comment/><!-- b --><?p d?>`, true},
		{"leading BOM", "\uFEFF<comment/>", true},
		{"trailing garbage", `<comment/>trailing garbage`, false},
		{"leading garbage", `junk<comment/>`, false},
		{"trailing BOM", "<comment/>\uFEFF", false},
		{"text between roots", `<comment/>x<comment/>`, false},
		{"stray end tag only", `</comment>`, false},
		{"stray end tag after root", `<comment></comment></comment>`, false},
		{"stray end tag before root", `</comment><comment/>`, false},
		{"unclosed root", `<comment>`, false},
		{"mismatched close", `<comment></other>`, false},
	}
}
