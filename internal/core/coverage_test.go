package core

import (
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/observatory"
	"xmlac/internal/policy"
)

// TestPolicyCoverageGoldenDeadRule is the coverage golden: a policy with
// a deliberately dead rule (its resource matches nothing in the loaded
// document) and an always-losing rule (every node it matches is decided
// against it by conflict resolution) — the report must name both.
func TestPolicyCoverageGoldenDeadRule(t *testing.T) {
	text := `
default deny
conflict deny
rule LIVE allow //patient/name
rule DEAD allow //pharmacy
rule LOSER allow //experimental
rule KILLER deny //experimental
`
	sys := whySystem(t, BackendNative, text, false)
	rep, err := sys.PolicyCoverage()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Semantics != "ds=-,cr=-" {
		t.Fatalf("semantics = %q", rep.Semantics)
	}
	if rep.Nodes == 0 || rep.Nodes != rep.AllowedNodes+rep.DeniedNodes {
		t.Fatalf("node mix = %+v", rep)
	}
	byName := map[string]observatory.RuleCoverage{}
	for _, r := range rep.Rules {
		byName[r.Name] = r
		if r.Matched != r.Deciding+r.CoMatched+r.Losing {
			t.Fatalf("rule %s tallies inconsistent: %+v", r.Name, r)
		}
	}
	if r := byName["LIVE"]; r.Dead || r.Deciding == 0 {
		t.Fatalf("LIVE = %+v, want deciding matches", r)
	}
	if r := byName["DEAD"]; !r.Dead || r.Matched != 0 {
		t.Fatalf("DEAD = %+v, want dead with zero matches", r)
	}
	// //pharmacy exists in no hospital document: DEAD is reported by name.
	if len(rep.DeadRules) != 1 || rep.DeadRules[0] != "DEAD" {
		t.Fatalf("dead rules = %v, want [DEAD]", rep.DeadRules)
	}
	// Under conflict deny, KILLER out-decides LOSER on every experimental
	// node, so LOSER matches but never decides nor co-decides.
	if r := byName["LOSER"]; !r.AlwaysLosing || r.Matched == 0 || r.Deciding != 0 || r.CoMatched != 0 {
		t.Fatalf("LOSER = %+v, want always-losing", r)
	}
	if len(rep.AlwaysLosingRules) != 1 || rep.AlwaysLosingRules[0] != "LOSER" {
		t.Fatalf("always-losing rules = %v, want [LOSER]", rep.AlwaysLosingRules)
	}
	if r := byName["KILLER"]; r.Deciding == 0 {
		t.Fatalf("KILLER = %+v, want deciding denials", r)
	}
	// Every node either defaulted or was decided by some rule.
	decided := 0
	for _, r := range rep.Rules {
		decided += r.Deciding
	}
	if decided+rep.DefaultDecided != rep.Nodes {
		t.Fatalf("decided %d + default %d != nodes %d", decided, rep.DefaultDecided, rep.Nodes)
	}
	if rep.AccessibleFraction <= 0 || rep.AccessibleFraction >= 1 {
		t.Fatalf("accessible fraction = %v", rep.AccessibleFraction)
	}
}

// TestPolicyCoverageMatchCounts pins exact per-rule match counts on the
// hospital document under Table 1: R1 matches the three patients, and R5
// the one patient with an experimental treatment.
func TestPolicyCoverageMatchCounts(t *testing.T) {
	sys := whySystem(t, BackendNative, table1With("deny", "deny"), false)
	rep, err := sys.PolicyCoverage()
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]int{}
	for _, r := range rep.Rules {
		matched[r.Name] = r.Matched
	}
	if matched["R1"] != 3 || matched["R5"] != 1 {
		t.Fatalf("R1 matches %d, R5 matches %d; want 3 and 1", matched["R1"], matched["R5"])
	}
}

// TestPolicyCoverageReportsRemovedRules: rules the Table 3 optimizer
// eliminates before annotation surface in RemovedRules rather than
// silently vanishing from the report.
func TestPolicyCoverageReportsRemovedRules(t *testing.T) {
	text := `
default deny
conflict deny
rule BROAD allow //patient//*
rule NARROW allow //patient/name
`
	sys := whySystem(t, BackendNative, text, true)
	rep, err := sys.PolicyCoverage()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedRules) == 0 {
		t.Fatalf("optimizer removed nothing: %+v", rep)
	}
	for _, r := range rep.Rules {
		if r.Name == "NARROW" {
			t.Fatalf("optimized-away rule still tallied: %+v", rep.Rules)
		}
	}
}

// TestCoverageByCohort: per-cohort reports carry the membership and line
// up with a single-user System over the same policy; the rollup
// aggregates them by semantics.
func TestCoverageByCohort(t *testing.T) {
	m := newMultiUser(t)
	// Two more users sharing the doctor's policy grow its cohort.
	if err := m.AddUser("doctor2", policy.MustParse(userPolicies["doctor"])); err != nil {
		t.Fatal(err)
	}
	cohorts, err := m.CoverageByCohort()
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) != 4 {
		t.Fatalf("cohorts = %d, want 4 (doctor+doctor2 share)", len(cohorts))
	}
	totalMembers, doctors := 0, 0
	for _, rep := range cohorts {
		totalMembers += rep.Members
		if rep.Members == 2 {
			doctors++
		}
		if rep.Nodes != rep.AllowedNodes+rep.DeniedNodes {
			t.Fatalf("cohort mix = %+v", rep)
		}
	}
	if totalMembers != 5 || doctors != 1 {
		t.Fatalf("members = %d across cohorts (%d two-member), want 5 with one shared", totalMembers, doctors)
	}

	// The doctor cohort's node mix equals a single-user System running
	// the same policy over the same document.
	doc := hospital.Generate(hospital.GenOptions{Seed: 23, Departments: 2, PatientsPerDept: 15, StaffPerDept: 6})
	sys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: policy.MustParse(userPolicies["doctor"]), Backend: BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	single, err := sys.PolicyCoverage()
	if err != nil {
		t.Fatal(err)
	}
	var shared *observatory.CoverageReport
	for _, rep := range cohorts {
		if rep.Members == 2 {
			shared = rep
		}
	}
	if shared.AllowedNodes != single.AllowedNodes || shared.DeniedNodes != single.DeniedNodes {
		t.Fatalf("cohort mix %d/%d != single-user %d/%d",
			shared.AllowedNodes, shared.DeniedNodes, single.AllowedNodes, single.DeniedNodes)
	}

	rollup := observatory.RollupCoverage(cohorts)
	if rollup.Cohorts != 4 || rollup.Users != 5 {
		t.Fatalf("rollup = %+v", rollup)
	}
	seen := 0
	for _, mix := range rollup.BySemantics {
		seen += mix.Users
	}
	if seen != 5 {
		t.Fatalf("rollup semantics users = %d, want 5", seen)
	}
}
