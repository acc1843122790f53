package xmlac_test

import (
	"errors"
	"strings"
	"testing"

	"xmlac"
)

// TestPublicAPIEndToEnd drives the whole public surface the way the README
// quick start does, on every backend.
func TestPublicAPIEndToEnd(t *testing.T) {
	for _, b := range []xmlac.Backend{xmlac.BackendNative, xmlac.BackendRow, xmlac.BackendColumn} {
		t.Run(b.String(), func(t *testing.T) {
			schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := xmlac.New(xmlac.Config{
				Schema:   schema,
				Policy:   xmlac.HospitalPolicy(),
				Backend:  b,
				Optimize: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The optimizer reproduced Table 3.
			if got := len(sys.Policy().Rules); got != 5 {
				t.Fatalf("optimized rules = %d, want 5", got)
			}
			doc, err := xmlac.ParseXML(strings.NewReader(xmlac.HospitalDocumentText))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Load(doc); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Annotate(); err != nil {
				t.Fatal(err)
			}
			// Granted request.
			res, err := sys.Request(xmlac.MustParseXPath("//patient/name"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Checked != 3 {
				t.Fatalf("checked = %d", res.Checked)
			}
			// Denied request.
			if _, err := sys.Request(xmlac.MustParseXPath("//psn")); !errors.Is(err, xmlac.ErrAccessDenied) {
				t.Fatalf("psn: %v", err)
			}
			// Update + re-annotation.
			rep, err := sys.DeleteAndReannotate(xmlac.MustParseXPath("//patient/treatment"))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Triggered) == 0 {
				t.Fatal("no rules triggered")
			}
			if _, err := sys.Request(xmlac.MustParseXPath("//patient")); err != nil {
				t.Fatalf("patients should all be accessible after the delete: %v", err)
			}
		})
	}
}

func TestContainsFacade(t *testing.T) {
	p := xmlac.MustParseXPath("//patient[treatment]")
	q := xmlac.MustParseXPath("//patient")
	if !xmlac.Contains(p, q) || xmlac.Contains(q, p) {
		t.Fatal("containment facade broken")
	}
}

func TestRemoveRedundantFacade(t *testing.T) {
	reduced, removed := xmlac.RemoveRedundant(xmlac.HospitalPolicy())
	if len(reduced.Rules) != 5 || len(removed) != 3 {
		t.Fatalf("kept %d removed %d", len(reduced.Rules), len(removed))
	}
}

func TestGenerateXMarkFacade(t *testing.T) {
	doc := xmlac.GenerateXMark(xmlac.XMarkOptions{Factor: 0.0005, Seed: 1})
	if errs := xmlac.XMarkSchema().Validate(doc); len(errs) > 0 {
		t.Fatalf("invalid: %v", errs[0])
	}
}

func TestGenerateHospitalFacade(t *testing.T) {
	doc := xmlac.GenerateHospital(xmlac.HospitalGenOptions{Seed: 1, Departments: 1, PatientsPerDept: 4})
	if errs := xmlac.HospitalSchema().Validate(doc); len(errs) > 0 {
		t.Fatalf("invalid: %v", errs[0])
	}
}

func TestNewDocumentFacade(t *testing.T) {
	doc := xmlac.NewDocument("a")
	doc.AddText(doc.AddElement(doc.Root(), "b"), "v")
	nodes, err := xmlac.EvalXPath(xmlac.MustParseXPath("//b"), doc)
	if err != nil || len(nodes) != 1 {
		t.Fatalf("eval: %v %d", err, len(nodes))
	}
}

func TestMultiUserFacade(t *testing.T) {
	schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmlac.NewMultiUser(schema, xmlac.HospitalDocument())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddUser("u1", xmlac.HospitalPolicy()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Request("u1", xmlac.MustParseXPath("//patient/name")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Request("u1", xmlac.MustParseXPath("//psn")); !errors.Is(err, xmlac.ErrAccessDenied) {
		t.Fatalf("psn: %v", err)
	}
}
