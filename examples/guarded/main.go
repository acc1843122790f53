// Command guarded demonstrates the reproduction's extensions working
// together on the hospital data: write rules guarding updates, security
// views, filtering requests, and a compressed accessibility map of the
// final annotation.
//
//	go run ./examples/guarded
package main

import (
	"errors"
	"fmt"
	"log"

	"xmlac"
	"xmlac/internal/cam"
)

const guardedPolicy = `
default deny
conflict deny
# read rules (drive the materialized annotations)
rule R1 allow //patient
rule R2 allow //patient/name
rule R3 deny //patient[treatment]
rule R5 deny //patient[.//experimental]
rule R6 allow //regular
# write rules (checked before updates apply)
rule W1 allow write //treatment
rule W2 deny  write //treatment[experimental]
rule W3 allow write //regular
`

func main() {
	schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := xmlac.ParsePolicy(guardedPolicy)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := xmlac.New(xmlac.Config{
		Schema:       schema,
		Policy:       pol,
		Backend:      xmlac.BackendNative,
		Optimize:     true,
		EnforceWrite: true, // write rules gate updates
	})
	if err != nil {
		log.Fatal(err)
	}
	doc := xmlac.GenerateHospital(xmlac.HospitalGenOptions{
		Seed: 42, Departments: 2, PatientsPerDept: 30, StaffPerDept: 10,
	})
	if err := sys.Load(doc); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		log.Fatal(err)
	}
	cov, _ := sys.Coverage()
	fmt.Printf("document: %d elements, %.1f%% accessible\n\n", sys.Document().ElementCount(), cov*100)

	fmt.Println("== filtering requests (vs all-or-nothing) ==")
	q := xmlac.MustParseXPath("//patient")
	if _, err := sys.Request(q); errors.Is(err, xmlac.ErrAccessDenied) {
		fmt.Printf("  all-or-nothing %s: DENIED\n", q)
	}
	res, hidden, err := sys.RequestFiltered(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  filtered       %s: %d visible, %d hidden\n\n", q, len(res.Nodes), hidden)

	fmt.Println("== write-guarded updates ==")
	// W2 denies touching treatments that hold experimental data.
	if _, err := sys.DeleteAndReannotate(xmlac.MustParseXPath("//treatment")); errors.Is(err, xmlac.ErrUpdateDenied) {
		fmt.Printf("  delete //treatment: %v\n", err)
	}
	// Deleting only regular treatments is allowed (W3).
	rep, err := sys.DeleteAndReannotate(xmlac.MustParseXPath("//regular"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  delete //regular: %d nodes removed, triggered %v\n\n", rep.DeletedNodes, rep.Triggered)

	fmt.Println("== security view (promote mode) ==")
	view, err := sys.ExportView(xmlac.ViewPromote)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  view holds %d of %d elements\n\n", view.ElementCount(), sys.Document().ElementCount())

	fmt.Println("== compressed accessibility map ==")
	m := cam.FromSigns(sys.Document(), false)
	fmt.Printf("  %s — %.1f%% of one-mark-per-element\n",
		m, 100*float64(m.Size())/float64(sys.Document().ElementCount()))
}
