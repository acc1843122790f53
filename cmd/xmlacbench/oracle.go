package main

import (
	"bufio"
	_ "embed"
	"errors"
	"fmt"
	"strings"

	"xmlac"
)

// The workload inputs live here as data rather than being imported from the
// repository's evaluation harness, so editing shared code cannot shift them.
var (
	//go:embed data/queries.txt
	queriesText string
	//go:embed data/policy.txt
	policyText string
	//go:embed data/lot.xml
	lotText string
	//go:embed data/bidder.xml
	bidderText string
)

// The writes insert and delete one marked bidder under the benchmark's own
// open auction (data/lot.xml), which every workload's document carries.
const (
	lotLabel      = "BenchLot"
	bidderMarker  = "MARKER"
	bidderChanged = 5 // elements one bidder insert or delete adds or removes
)

var (
	openAuctionsPath = xmlac.MustParseXPath("/site/open_auctions")
	lotPath          = xmlac.MustParseXPath(`//open_auction[type = "` + lotLabel + `"]`)
)

// inputs are the parsed workload inputs shared by every run.
type inputs struct {
	texts   []string
	queries []*xmlac.Path
	schema  *xmlac.Schema
	lot     *xmlac.Node
}

func loadInputs() (*inputs, error) {
	in := &inputs{schema: xmlac.XMarkSchema()}
	sc := bufio.NewScanner(strings.NewReader(queriesText))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := xmlac.ParseXPath(line)
		if err != nil {
			return nil, fmt.Errorf("data/queries.txt: %w", err)
		}
		in.texts = append(in.texts, line)
		in.queries = append(in.queries, q)
	}
	if _, err := xmlac.ParsePolicy(policyText); err != nil {
		return nil, fmt.Errorf("data/policy.txt: %w", err)
	}
	lot, err := xmlac.ParseXMLString(lotText)
	if err != nil {
		return nil, fmt.Errorf("data/lot.xml: %w", err)
	}
	in.lot = lot.Root()
	if _, err := in.bidder("check"); err != nil {
		return nil, fmt.Errorf("data/bidder.xml: %w", err)
	}
	return in, nil
}

// bidder returns the write template carrying the given marker.
func (in *inputs) bidder(marker string) (*xmlac.Node, error) {
	doc, err := xmlac.ParseXMLString(strings.Replace(bidderText, bidderMarker, marker, 1))
	if err != nil {
		return nil, err
	}
	return doc.Root(), nil
}

// bidderPath locates the bidder inserted with the given marker.
func bidderPath(marker string) *xmlac.Path {
	return xmlac.MustParseXPath(`//open_auction[type = "` + lotLabel + `"]/bidder[time = "` + marker + `"]`)
}

// baseDocument is the seeded XMark document plus the benchmark's lot: the
// state every workload starts from.
func (in *inputs) baseDocument(factor float64, seed int64) (*xmlac.Document, error) {
	doc := xmlac.GenerateXMark(xmlac.XMarkOptions{Factor: factor, Seed: uint64(seed)})
	parents := doc.ElementsByLabel("open_auctions")
	if len(parents) != 1 {
		return nil, fmt.Errorf("generated document has %d open_auctions elements", len(parents))
	}
	if _, err := doc.InsertSubtree(parents[0], in.lot); err != nil {
		return nil, err
	}
	return doc, nil
}

// expect is the oracle's answer to one query: granted iff every matched
// element is accessible, and then how many nodes the answer holds.
type expect struct {
	granted bool
	count   int
}

func (e expect) matches(got expect) bool {
	return e.granted == got.granted && (!e.granted || e.count == got.count)
}

// oracle answers every query by brute force: the policy's Table 2
// semantics evaluated directly on the document, joined with the raw XPath
// result. It shares no code path with the annotation, the stores or the
// enforcers.
func (in *inputs) oracle(doc *xmlac.Document) ([]expect, error) {
	pol, err := xmlac.ParsePolicy(policyText)
	if err != nil {
		return nil, err
	}
	acc, err := pol.Semantics(doc)
	if err != nil {
		return nil, err
	}
	out := make([]expect, len(in.queries))
	for i, q := range in.queries {
		nodes, err := xmlac.EvalXPath(q, doc)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q, err)
		}
		out[i] = expect{granted: true, count: len(nodes)}
		for _, n := range nodes {
			if !acc[n.ID] {
				out[i].granted = false
				break
			}
		}
	}
	return out, nil
}

// states returns the oracle's answers for the two states the writes move
// between: the base document (s0) and the base document with one marked
// bidder inserted (s1). No query or rule reads a marker, so one answer
// set serves every marker.
func (in *inputs) states(base *xmlac.Document) (s0, s1 []expect, err error) {
	if s0, err = in.oracle(base); err != nil {
		return nil, nil, err
	}
	doc := base.Clone()
	lots, err := xmlac.EvalXPath(lotPath, doc)
	if err != nil || len(lots) != 1 {
		return nil, nil, fmt.Errorf("base document holds %d benchmark lots (%v)", len(lots), err)
	}
	tmpl, err := in.bidder("oracle")
	if err != nil {
		return nil, nil, err
	}
	if _, err := doc.InsertSubtree(lots[0], tmpl); err != nil {
		return nil, nil, err
	}
	s1, err = in.oracle(doc)
	return s0, s1, err
}

// judge classifies one request outcome: failed for any error but an access
// denial, wrong when the decision matches none of the accepted answers.
func judge(res *xmlac.RequestResult, err error, accept ...expect) (failed, wrong bool) {
	var got expect
	switch {
	case err == nil:
		got = expect{granted: true, count: res.Checked}
	case errors.Is(err, xmlac.ErrAccessDenied):
	default:
		return true, false
	}
	return false, !anyMatch(got, accept)
}

func anyMatch(got expect, accept []expect) bool {
	for _, e := range accept {
		if e.matches(got) {
			return true
		}
	}
	return false
}
