// Command reannotation demonstrates the paper's central contribution
// (Section 5.3): after a document update, the Trigger algorithm names the
// rules whose scope may have changed — via schema-aware rule expansion and
// the rule dependency graph — and only the write's region is re-annotated,
// instead of the whole document.
//
//	go run ./examples/reannotation
package main

import (
	"fmt"
	"log"

	"xmlac"
)

func main() {
	schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
	if err != nil {
		log.Fatal(err)
	}
	// A larger generated hospital so the timings mean something.
	doc := xmlac.GenerateHospital(xmlac.HospitalGenOptions{
		Seed: 7, Departments: 4, PatientsPerDept: 250, StaffPerDept: 50,
	})
	fmt.Printf("document: %d nodes (%d elements)\n\n", doc.Size(), doc.ElementCount())

	newSys := func() *xmlac.System {
		sys, err := xmlac.New(xmlac.Config{
			Schema:   schema,
			Policy:   xmlac.HospitalPolicy(),
			Backend:  xmlac.BackendNative,
			Optimize: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Load(doc.Clone()); err != nil {
			log.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			log.Fatal(err)
		}
		return sys
	}

	// The paper's walk-through: deleting treatments makes the previously
	// denied patients accessible. The update //patient/treatment matches
	// R3's expansion, and the dependency graph pulls in R1 and R5.
	fmt.Println("== update: delete //patient/treatment ==")
	sys := newSys()
	before := accessiblePatients(sys)
	rep, err := sys.DeleteAndReannotate(xmlac.MustParseXPath("//patient/treatment"))
	if err != nil {
		log.Fatal(err)
	}
	after := accessiblePatients(sys)
	fmt.Printf("  triggered rules:        %v\n", rep.Triggered)
	fmt.Printf("  deleted nodes:          %d\n", rep.DeletedNodes)
	fmt.Printf("  re-annotated:           %d set, %d reset\n", rep.Stats.Updated, rep.Stats.Reset)
	fmt.Printf("  accessible patients:    %d → %d\n", before, after)
	fmt.Printf("  trigger+reannotate:     %v\n\n", rep.PrepareTime+rep.ReannotateTime)

	// The same update against the full-annotation baseline.
	fmt.Println("== baseline: delete, then annotate from scratch ==")
	base := newSys()
	repFull, err := base.DeleteAndFullAnnotate(xmlac.MustParseXPath("//patient/treatment"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  full annotation:        %v\n", repFull.ReannotateTime)
	partial := rep.PrepareTime + rep.ReannotateTime
	if partial > 0 {
		fmt.Printf("  speedup:                %.1fx\n\n", float64(repFull.ReannotateTime)/float64(partial))
	}

	// The schema-aware expansion case: deleting //treatment (not
	// //patient/treatment) still triggers R5 because its qualifier
	// .//experimental expands through the schema into
	// //patient/treatment/experimental.
	fmt.Println("== update: delete //experimental (descendant qualifier case) ==")
	sys2 := newSys()
	rep2, err := sys2.DeleteAndReannotate(xmlac.MustParseXPath("//experimental"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  triggered rules:        %v\n", rep2.Triggered)
	fmt.Printf("  accessible patients:    %d\n\n", accessiblePatients(sys2))

	// Inserts work too (the paper lists update operations as future work;
	// the same Trigger machinery supports them here): grafting an empty
	// treatment under every patient flips them all to inaccessible via R3.
	fmt.Println("== update: insert a treatment under every patient ==")
	sys3 := newSys()
	tmpl := xmlac.NewDocument("treatment").Root()
	rep3, err := sys3.InsertAndReannotate(xmlac.MustParseXPath("//patient"), tmpl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  triggered rules:        %v\n", rep3.Triggered)
	fmt.Printf("  accessible patients:    %d (every patient now has a treatment)\n", accessiblePatients(sys3))
}

func accessiblePatients(sys *xmlac.System) int {
	ids, err := sys.AccessibleIDs()
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for _, p := range sys.Document().ElementsByLabel("patient") {
		if ids[p.ID] {
			n++
		}
	}
	return n
}
