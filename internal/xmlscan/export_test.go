package xmlscan

import "io"

// NewEdgeReader exposes the short-read test reader to the external test
// package, whose tests import packages that themselves import xmlscan.
func NewEdgeReader(data []byte) io.Reader { return &edgeReader{data: data} }
