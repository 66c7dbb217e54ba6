// Package loadtest is the client side of the SPARQL endpoint: one-request
// query and update helpers, and result-set decoders that reconstruct the
// exact rdf.Term rows a server streamed (shared by the server tests and the
// whole-stack benchmark).
package loadtest

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/rdf"
)

// Document is a decoded SPARQL results document: a SELECT row set (Vars +
// Rows) or an ASK answer (Boolean non-nil). Rows mirror the engine's
// convention — one term per variable in Vars order, the empty Term for an
// unbound position — so a decoded document compares byte-for-byte against
// an in-process Rows drain.
type Document struct {
	Vars    []string
	Rows    [][]rdf.Term
	Boolean *bool
}

// Decode parses a SPARQL results body in the given content type
// (application/sparql-results+json or +xml).
func Decode(contentType string, r io.Reader) (*Document, error) {
	switch contentType {
	case "application/sparql-results+json", "application/json":
		return decodeJSON(r)
	case "application/sparql-results+xml", "application/xml":
		return decodeXML(r)
	}
	return nil, fmt.Errorf("loadtest: cannot decode content type %q", contentType)
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang"`
	Datatype string `json:"datatype"`
}

func (t jsonTerm) term() (rdf.Term, error) {
	switch t.Type {
	case "uri":
		return rdf.NewIRI(t.Value), nil
	case "bnode":
		return rdf.NewBlank(t.Value), nil
	case "literal", "typed-literal":
		switch {
		case t.Lang != "":
			return rdf.NewLangLiteral(t.Value, t.Lang), nil
		case t.Datatype != "":
			return rdf.NewTypedLiteral(t.Value, t.Datatype), nil
		}
		return rdf.NewLiteral(t.Value), nil
	}
	return "", fmt.Errorf("loadtest: unknown term type %q", t.Type)
}

func decodeJSON(r io.Reader) (*Document, error) {
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Boolean *bool `json:"boolean"`
		Results *struct {
			Bindings []map[string]jsonTerm `json:"bindings"`
		} `json:"results"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("loadtest: decoding json results: %w", err)
	}
	out := &Document{Vars: doc.Head.Vars, Boolean: doc.Boolean}
	if doc.Results == nil {
		return out, nil
	}
	slot := make(map[string]int, len(out.Vars))
	for i, v := range out.Vars {
		slot[v] = i
	}
	for _, b := range doc.Results.Bindings {
		row := make([]rdf.Term, len(out.Vars))
		for name, jt := range b {
			i, ok := slot[name]
			if !ok {
				return nil, fmt.Errorf("loadtest: binding for undeclared variable %q", name)
			}
			t, err := jt.term()
			if err != nil {
				return nil, err
			}
			row[i] = t
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

type xmlLiteral struct {
	Lang     string `xml:"lang,attr"`
	Datatype string `xml:"datatype,attr"`
	Value    string `xml:",chardata"`
}

type xmlBinding struct {
	Name    string      `xml:"name,attr"`
	URI     *string     `xml:"uri"`
	BNode   *string     `xml:"bnode"`
	Literal *xmlLiteral `xml:"literal"`
}

func (b xmlBinding) term() (rdf.Term, error) {
	switch {
	case b.URI != nil:
		return rdf.NewIRI(*b.URI), nil
	case b.BNode != nil:
		return rdf.NewBlank(*b.BNode), nil
	case b.Literal != nil:
		switch {
		case b.Literal.Lang != "":
			return rdf.NewLangLiteral(b.Literal.Value, b.Literal.Lang), nil
		case b.Literal.Datatype != "":
			return rdf.NewTypedLiteral(b.Literal.Value, b.Literal.Datatype), nil
		}
		return rdf.NewLiteral(b.Literal.Value), nil
	}
	return "", fmt.Errorf("loadtest: binding %q carries no term", b.Name)
}

func decodeXML(r io.Reader) (*Document, error) {
	var doc struct {
		XMLName xml.Name `xml:"sparql"`
		Head    struct {
			Variables []struct {
				Name string `xml:"name,attr"`
			} `xml:"variable"`
		} `xml:"head"`
		Boolean *bool `xml:"boolean"`
		Results *struct {
			Results []struct {
				Bindings []xmlBinding `xml:"binding"`
			} `xml:"result"`
		} `xml:"results"`
	}
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("loadtest: decoding xml results: %w", err)
	}
	out := &Document{Boolean: doc.Boolean}
	for _, v := range doc.Head.Variables {
		out.Vars = append(out.Vars, v.Name)
	}
	if doc.Results == nil {
		return out, nil
	}
	slot := make(map[string]int, len(out.Vars))
	for i, v := range out.Vars {
		slot[v] = i
	}
	for _, res := range doc.Results.Results {
		row := make([]rdf.Term, len(out.Vars))
		for _, b := range res.Bindings {
			i, ok := slot[b.Name]
			if !ok {
				return nil, fmt.Errorf("loadtest: binding for undeclared variable %q", b.Name)
			}
			t, err := b.term()
			if err != nil {
				return nil, err
			}
			row[i] = t
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
