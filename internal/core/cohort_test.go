package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xmlac/internal/cam"
	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Cohort-compression tests: the policy-equivalence layer must be invisible
// to every caller — answers byte-identical to the per-user baseline — while
// collapsing the shared state to one copy per distinct policy.

// cohortSemanticsPolicies builds a small role set under one (default,
// conflict) pair: three distinct policies, with the "doctor" role handed to
// several users so sharing actually happens.
func cohortSemanticsPolicies(def, conflict string) map[string]string {
	header := fmt.Sprintf("default %s\nconflict %s\n", def, conflict)
	doctor := header + `
rule D1 allow //patient
rule D2 allow //patient//*
rule D3 deny //experimental
`
	reception := header + `
rule C1 allow //patient/name
rule C2 deny //psn
`
	auditor := header + `
rule A1 deny //experimental
rule A2 allow //staffinfo//*
`
	return map[string]string{
		"dr-a":      doctor,
		"dr-b":      doctor,
		"dr-c":      doctor,
		"reception": reception,
		"audit-a":   auditor,
		"audit-b":   auditor,
	}
}

func nodeIDs(nodes []*xmltree.Node) []int64 {
	ids := make([]int64, 0, len(nodes))
	for _, n := range nodes {
		ids = append(ids, n.ID)
	}
	return ids
}

func cohortDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	return hospital.Generate(hospital.GenOptions{Seed: 41, Departments: 2, PatientsPerDept: 12, StaffPerDept: 5})
}

func buildCohortPair(t *testing.T, pols map[string]string) (compressed, baseline *MultiUser) {
	t.Helper()
	build := func(share bool) *MultiUser {
		m, err := NewMultiUser(hospital.Schema(), cohortDoc(t))
		if err != nil {
			t.Fatal(err)
		}
		m.SetCohortCompression(share)
		for name, text := range pols {
			if err := m.AddUser(name, policy.MustParse(text)); err != nil {
				t.Fatalf("AddUser(%s): %v", name, err)
			}
		}
		return m
	}
	return build(true), build(false)
}

// TestCohortGoldenMatchesPerUserBaseline: for all four Table 2 semantics,
// every user-visible answer (Request outcome and node set, AccessibleIDs,
// ExportView) of the cohort-compressed layer is byte-identical to the
// per-user baseline — before and after a shared delete.
func TestCohortGoldenMatchesPerUserBaseline(t *testing.T) {
	queries := []*xpath.Path{
		xpath.MustParse("//patient/name"),
		xpath.MustParse("//psn"),
		xpath.MustParse("//staffinfo//*"),
		xpath.MustParse("//experimental"),
		xpath.MustParse("//patient"),
	}
	for _, def := range []string{"allow", "deny"} {
		for _, conflict := range []string{"allow", "deny"} {
			t.Run("default_"+def+"/conflict_"+conflict, func(t *testing.T) {
				pols := cohortSemanticsPolicies(def, conflict)
				com, base := buildCohortPair(t, pols)
				if got, want := com.CohortCount(), 3; got != want {
					t.Fatalf("compressed cohorts = %d, want %d", got, want)
				}
				if got, want := base.CohortCount(), len(pols); got != want {
					t.Fatalf("baseline cohorts = %d, want %d (one per user)", got, want)
				}
				compare := func(stage string) {
					for name := range pols {
						for _, q := range queries {
							ra, ea := com.Request(name, q)
							rb, eb := base.Request(name, q)
							if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
								t.Fatalf("%s: user %s query %s: cohort err %v, baseline err %v", stage, name, q, ea, eb)
							}
							if ea == nil && !reflect.DeepEqual(nodeIDs(ra.Nodes), nodeIDs(rb.Nodes)) {
								t.Fatalf("%s: user %s query %s: matched node sets diverge", stage, name, q)
							}
							fa, da, err := com.RequestFiltered(name, q)
							if err != nil {
								t.Fatal(err)
							}
							fb, db, err := base.RequestFiltered(name, q)
							if err != nil {
								t.Fatal(err)
							}
							if da != db || !reflect.DeepEqual(fa.IDs, fb.IDs) {
								t.Fatalf("%s: user %s query %s: filtered results diverge", stage, name, q)
							}
						}
						ia, err := com.AccessibleIDs(name)
						if err != nil {
							t.Fatal(err)
						}
						ib, err := base.AccessibleIDs(name)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(ia, ib) {
							t.Fatalf("%s: user %s: accessible sets diverge (%d vs %d)", stage, name, len(ia), len(ib))
						}
						for _, mode := range []ViewMode{ViewPrune, ViewPromote} {
							va, err := com.ExportView(name, mode)
							if err != nil {
								t.Fatal(err)
							}
							vb, err := base.ExportView(name, mode)
							if err != nil {
								t.Fatal(err)
							}
							var sa, sb strings.Builder
							if err := va.Write(&sa, xmltree.WriteOptions{}); err != nil {
								t.Fatal(err)
							}
							if err := vb.Write(&sb, xmltree.WriteOptions{}); err != nil {
								t.Fatal(err)
							}
							if sa.String() != sb.String() {
								t.Fatalf("%s: user %s mode %v: exported views not byte-identical", stage, name, mode)
							}
						}
					}
				}
				compare("initial")
				u := xpath.MustParse("//experimental")
				ra, err := com.Delete(u)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := base.Delete(u)
				if err != nil {
					t.Fatal(err)
				}
				if ra.DeletedNodes != rb.DeletedNodes {
					t.Fatalf("delete removed %d vs baseline %d", ra.DeletedNodes, rb.DeletedNodes)
				}
				if !reflect.DeepEqual(ra.Reannotated, rb.Reannotated) {
					t.Fatalf("reannotated users diverge: %v vs %v", ra.Reannotated, rb.Reannotated)
				}
				if ra.RebuiltCohorts > rb.RebuiltCohorts {
					t.Fatalf("cohort mode rebuilt %d maps, baseline only %d", ra.RebuiltCohorts, rb.RebuiltCohorts)
				}
				compare("after delete")
			})
		}
	}
}

// TestCohortSharingAndFingerprint: users with the same rule set — even
// spelled with different rule names, order, or duplicates — share one
// cohort, and the shared map is stored once.
func TestCohortSharingAndFingerprint(t *testing.T) {
	m, err := NewMultiUser(hospital.Schema(), cohortDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	a := `
default deny
conflict deny
rule R1 allow //patient
rule R2 deny //psn
`
	// Same policy: different names, reversed order, one duplicate rule.
	b := `
default deny
conflict deny
rule X1 deny //psn
rule X2 allow //patient
rule X3 allow //patient
`
	if err := m.AddUser("alice", policy.MustParse(a)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddUser("bob", policy.MustParse(b)); err != nil {
		t.Fatal(err)
	}
	if got := m.CohortCount(); got != 1 {
		t.Fatalf("cohorts = %d, want 1", got)
	}
	ca, _ := m.CohortOf("alice")
	cb, _ := m.CohortOf("bob")
	if ca != cb || ca == "" {
		t.Fatalf("CohortOf: alice %q, bob %q", ca, cb)
	}
	if hits := reg.Counter("core_multiuser_cohort_hits_total").Value(); hits != 1 {
		t.Fatalf("cohort hits = %d, want 1", hits)
	}
	st := m.Stats()
	if st.Users != 2 || st.Cohorts != 1 || st.DedupRatio != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.CohortList) != 1 || st.CohortList[0].Members != 2 {
		t.Fatalf("cohort list = %+v", st.CohortList)
	}
	sa, _ := m.MapSize("alice")
	if st.TotalMarks != sa {
		t.Fatalf("total marks %d, shared map size %d", st.TotalMarks, sa)
	}
}

// TestCohortEquivalenceFallback: fingerprints differ but the policies
// provably coincide under the schema (patient elements occur only at
// /hospital/dept/patients/patient), so the containment fallback merges the
// cohorts.
func TestCohortEquivalenceFallback(t *testing.T) {
	m, err := NewMultiUser(hospital.Schema(), cohortDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	short := `
default deny
conflict deny
rule S allow //patient
`
	long := `
default deny
conflict deny
rule L allow /hospital/dept/patients/patient
`
	if PolicyFingerprint(policy.MustParse(short)) == PolicyFingerprint(policy.MustParse(long)) {
		t.Fatal("test premise broken: fingerprints should differ")
	}
	if err := m.AddUser("s", policy.MustParse(short)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddUser("l", policy.MustParse(long)); err != nil {
		t.Fatal(err)
	}
	if got := m.CohortCount(); got != 1 {
		t.Fatalf("cohorts = %d, want 1 (schema equivalence)", got)
	}
}

// TestCohortSplitOnDiverge: replacing one member's policy moves only that
// member; the rest keep the shared state, and replacing back rejoins the
// original cohort.
func TestCohortSplitOnDiverge(t *testing.T) {
	m, err := NewMultiUser(hospital.Schema(), cohortDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	shared := `
default deny
conflict deny
rule R1 allow //patient
rule R2 allow //patient//*
`
	other := `
default deny
conflict deny
rule R1 allow //staffinfo//*
`
	for _, u := range []string{"alice", "bob"} {
		if err := m.AddUser(u, policy.MustParse(shared)); err != nil {
			t.Fatal(err)
		}
	}
	if m.CohortCount() != 1 {
		t.Fatalf("cohorts = %d, want 1", m.CohortCount())
	}
	before, err := m.AccessibleIDs("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ReplaceUserPolicy("bob", policy.MustParse(other)); err != nil {
		t.Fatal(err)
	}
	if m.CohortCount() != 2 {
		t.Fatalf("after diverge: cohorts = %d, want 2", m.CohortCount())
	}
	// Alice is untouched by bob's divergence.
	after, err := m.AccessibleIDs("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("alice's accessibility changed when bob's policy diverged")
	}
	// Bob now matches a fresh evaluation of the new policy.
	want, err := policy.MustParse(other).Semantics(m.Document())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.AccessibleIDs("bob")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bob after diverge: %d accessible, want %d", len(got), len(want))
	}
	// Replacing back rejoins alice's cohort (and drops the divergent one).
	if err := m.ReplaceUserPolicy("bob", policy.MustParse(shared)); err != nil {
		t.Fatal(err)
	}
	if m.CohortCount() != 1 {
		t.Fatalf("after rejoin: cohorts = %d, want 1", m.CohortCount())
	}
	ca, _ := m.CohortOf("alice")
	cb, _ := m.CohortOf("bob")
	if ca != cb {
		t.Fatalf("rejoin: alice %q, bob %q", ca, cb)
	}
	// Replacing with an equivalent policy is a no-op.
	if err := m.ReplaceUserPolicy("alice", policy.MustParse(shared)); err != nil {
		t.Fatal(err)
	}
	if m.CohortCount() != 1 {
		t.Fatalf("no-op replace changed cohorts to %d", m.CohortCount())
	}
	// Replacing an unknown user fails.
	if err := m.ReplaceUserPolicy("ghost", policy.MustParse(shared)); err == nil {
		t.Fatal("unknown user accepted")
	}
}

// TestCohortRefcountDropToZero: removing every member evicts the cohort and
// its shared map, and the gauges — including core_multiuser_cam_marks,
// which RemoveUser historically left stale — reflect it.
func TestCohortRefcountDropToZero(t *testing.T) {
	m, err := NewMultiUser(hospital.Schema(), cohortDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	pol := policy.MustParse(`
default deny
conflict deny
rule R1 allow //patient
`)
	for _, u := range []string{"a", "b", "c"} {
		if err := m.AddUser(u, pol); err != nil {
			t.Fatal(err)
		}
	}
	if v := reg.Gauge("core_multiuser_cam_marks").Value(); v <= 0 {
		t.Fatalf("marks gauge = %v, want > 0", v)
	}
	if v := reg.Gauge("core_multiuser_users").Value(); v != 3 {
		t.Fatalf("users gauge = %v, want 3", v)
	}
	m.RemoveUser("a")
	m.RemoveUser("b")
	if m.CohortCount() != 1 {
		t.Fatalf("cohorts = %d, want 1 while a member remains", m.CohortCount())
	}
	m.RemoveUser("c")
	if m.CohortCount() != 0 || m.UserCount() != 0 {
		t.Fatalf("cohorts/users = %d/%d, want 0/0", m.CohortCount(), m.UserCount())
	}
	// The stale-gauge bug: RemoveUser must refresh every gauge.
	for gauge, want := range map[string]float64{
		"core_multiuser_cam_marks":   0,
		"core_multiuser_users":       0,
		"core_multiuser_cohorts":     0,
		"core_multiuser_dedup_ratio": 0,
	} {
		if v := reg.Gauge(gauge).Value(); v != want {
			t.Fatalf("%s = %v after removing all users, want %v", gauge, v, want)
		}
	}
	// Removing an unknown user is a no-op.
	m.RemoveUser("ghost")
	// Re-adding after eviction rebuilds a fresh cohort.
	if err := m.AddUser("d", pol); err != nil {
		t.Fatal(err)
	}
	if m.CohortCount() != 1 {
		t.Fatalf("re-add: cohorts = %d, want 1", m.CohortCount())
	}
	if _, err := m.Request("d", xpath.MustParse("//patient")); err != nil {
		t.Fatalf("re-added user request: %v", err)
	}
}

// TestCohortChurnHammer races AddUser/RemoveUser/ReplaceUserPolicy against
// requests and stats reads on a shared MultiUser (run with -race).
func TestCohortChurnHammer(t *testing.T) {
	m, err := NewMultiUser(hospital.Schema(), cohortDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	m.SetMetrics(obs.NewRegistry())
	pols := []*policy.Policy{
		policy.MustParse("default deny\nconflict deny\nrule R1 allow //patient\nrule R2 allow //patient//*\n"),
		policy.MustParse("default deny\nconflict deny\nrule R1 allow //staffinfo//*\n"),
		policy.MustParse("default allow\nconflict deny\nrule R1 deny //experimental\n"),
	}
	// A stable population so requests have someone to hit.
	for i := 0; i < 4; i++ {
		if err := m.AddUser(fmt.Sprintf("stable%d", i), pols[i%len(pols)]); err != nil {
			t.Fatal(err)
		}
	}
	q := xpath.MustParse("//patient/name")
	var wg sync.WaitGroup
	errCh := make(chan error, 128)
	tolerated := func(err error) bool {
		return err == nil || errors.Is(err, ErrAccessDenied) ||
			strings.Contains(err.Error(), "unknown user") ||
			strings.Contains(err.Error(), "already registered")
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn := fmt.Sprintf("churn%d", g%4)
			for i := 0; i < 25; i++ {
				switch (g + i) % 5 {
				case 0:
					if err := m.AddUser(churn, pols[i%len(pols)]); !tolerated(err) {
						errCh <- err
					}
				case 1:
					m.RemoveUser(churn)
				case 2:
					if err := m.ReplaceUserPolicy(churn, pols[(i+1)%len(pols)]); !tolerated(err) {
						errCh <- err
					}
				case 3:
					if _, err := m.Request(fmt.Sprintf("stable%d", i%4), q); !tolerated(err) {
						errCh <- err
					}
				case 4:
					st := m.Stats()
					if st.Users < 4 {
						errCh <- fmt.Errorf("stable users vanished: %+v", st)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The stable population is intact and consistent afterwards.
	st := m.Stats()
	members := 0
	for _, c := range st.CohortList {
		members += c.Members
	}
	if members != st.Users {
		t.Fatalf("cohort member counts sum to %d, users = %d", members, st.Users)
	}
	if st.Cohorts > st.Users {
		t.Fatalf("more cohorts (%d) than users (%d)", st.Cohorts, st.Users)
	}
}

// cohortOraclePaths are the rule resources TestCohortOracle draws from:
// every path carries a qualifier, so a delete below a qualified step can
// change a decision far above the deleted subtree.
var cohortOraclePaths = []string{
	"//dept[.//experimental]",
	"/hospital/dept[.//experimental]//name",
	"//dept[staffinfo/staff/doctor]//patient",
	"//patients[patient/treatment]//psn",
	"//patient[treatment]",
	"//patient[.//experimental]",
	"//patient[treatment]/name",
	"//patient[treatment/regular or .//experimental]",
	"//patient[.//bill > 1000]//bill",
	"//treatment[experimental]",
	"//treatment[regular]//*",
	"//regular[bill > 1000]",
	`//regular[med = "celecoxib"]`,
	"//staffinfo[staff/nurse]",
	"//staff[doctor]/*",
	"/hospital[.//nurse]//phone",
	"//*[experimental]",
}

// cohortOracleDeletes are the shared deletes TestCohortOracle applies.
var cohortOracleDeletes = []string{
	"//experimental",
	"//patient[treatment]",
	"//staff[nurse]",
	"//regular",
	"//treatment",
	"//patient[.//experimental]",
	"//regular[bill > 1000]",
	"//staff",
}

// TestCohortOracle checks cohort maintenance against the brute-force
// Table 2 evaluator under random policies and random deletes. Each seed
// registers two users with 1–4 rules drawn from cohortOraclePaths under
// random semantics on a generated hospital document, then applies three
// random deletes. After every delete each user's accessible set must
// equal policy.Semantics and their map must be exactly as large as a
// fresh cam.Build of the updated document, and the marks total must be
// the sum of the live maps.
func TestCohortOracle(t *testing.T) {
	// The pinned over-grant: the dept loses its last experimental
	// treatment, but the delete never names the rule's own label.
	t.Run("golden", func(t *testing.T) {
		m, err := NewMultiUser(hospital.Schema(), hospital.Generate(hospital.GenOptions{Seed: 1, Departments: 3, PatientsPerDept: 6, StaffPerDept: 2}))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddUser("u", policy.MustParse("default deny\nconflict allow\nrule R allow //dept[.//experimental]\n")); err != nil {
			t.Fatal(err)
		}
		if ids, _ := m.AccessibleIDs("u"); len(ids) == 0 {
			t.Fatal("test premise broken: no dept holds an experimental treatment")
		}
		if _, err := m.Delete(xpath.MustParse("//patient[treatment]")); err != nil {
			t.Fatal(err)
		}
		if ids, _ := m.AccessibleIDs("u"); len(ids) != 0 {
			t.Fatalf("%d elements granted after the last experimental treatment was deleted, policy.Semantics grants 0", len(ids))
		}
		if size, _ := m.MapSize("u"); size != 0 {
			t.Fatalf("map holds %d marks, a fresh build holds 0", size)
		}
	})

	const seeds, writes = 300, 3
	effects := []string{"allow", "deny"}
	var checks, wrongSets, wrongSizes, wrongTotals int
	totals := seeds * writes
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := hospital.Generate(hospital.GenOptions{Seed: uint64(seed), Departments: 1 + r.Intn(3), PatientsPerDept: 2 + r.Intn(6), StaffPerDept: r.Intn(4)})
		m, err := NewMultiUser(hospital.Schema(), doc)
		if err != nil {
			t.Fatal(err)
		}
		pols := map[string]*policy.Policy{}
		for _, user := range []string{"a", "b"} {
			text := fmt.Sprintf("default %s\nconflict %s\n", effects[r.Intn(2)], effects[r.Intn(2)])
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				text += fmt.Sprintf("rule R%d %s %s\n", i, effects[r.Intn(2)], cohortOraclePaths[r.Intn(len(cohortOraclePaths))])
			}
			pols[user] = policy.MustParse(text)
			if err := m.AddUser(user, pols[user]); err != nil {
				t.Fatalf("seed %d: AddUser(%s): %v", seed, user, err)
			}
		}
		for w := 0; w < writes; w++ {
			u := cohortOracleDeletes[r.Intn(len(cohortOracleDeletes))]
			if _, err := m.Delete(xpath.MustParse(u)); err != nil {
				t.Fatalf("seed %d: Delete(%s): %v", seed, u, err)
			}
			marks := map[string]int{}
			for user, pol := range pols {
				checks++
				want, err := pol.Semantics(m.Document())
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.AccessibleIDs(user)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					if wrongSets++; wrongSets <= 3 {
						t.Errorf("seed %d delete %d (%s): user %s has %d accessible, policy.Semantics %d\n%s",
							seed, w, u, user, len(got), len(want), pol)
					}
				}
				size, err := m.MapSize(user)
				if err != nil {
					t.Fatal(err)
				}
				if fresh := cam.Build(m.Document(), want, pol.Default == policy.Allow).Size(); size != fresh {
					if wrongSizes++; wrongSizes <= 3 {
						t.Errorf("seed %d delete %d (%s): user %s map holds %d marks, a fresh build %d",
							seed, w, u, user, size, fresh)
					}
				}
				id, _ := m.CohortOf(user)
				marks[id] = size
			}
			sum := 0
			for _, n := range marks {
				sum += n
			}
			if total := m.Stats().TotalMarks; total != sum {
				if wrongTotals++; wrongTotals <= 3 {
					t.Errorf("seed %d delete %d (%s): total marks %d, the live maps hold %d", seed, w, u, total, sum)
				}
			}
		}
	}
	if wrongSets+wrongSizes+wrongTotals > 0 {
		t.Errorf("%d of %d accessible sets wrong, %d of %d maps over- or under-sized, %d of %d mark totals off",
			wrongSets, checks, wrongSizes, checks, wrongTotals, totals)
	}
}
