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
