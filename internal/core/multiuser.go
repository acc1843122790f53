package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlac/internal/audit"
	"xmlac/internal/cam"
	"xmlac/internal/dtd"
	"xmlac/internal/obs"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/pool"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Multi-user access control. The paper's general rule model carries a
// requester component that its system fixes to a single subject ("we assume
// that the requester and action parameters are fixed"); its introduction
// nonetheless demands scaling "with the number of documents, users, and
// queries". This layer restores the requester: one shared document serves
// many subjects, each with their own policy.
//
// Materializing a full sign set per user would multiply the document per
// subject, so annotations are stored as compressed accessibility maps
// (internal/cam, after the paper's reference [26]) — size proportional to a
// policy's fragmentation, not the document. On top of that, subjects are
// compressed into policy-equivalence cohorts: real deployments hand the
// same policy (a role) to many users, so the expensive state — the
// optimized policy, the Reannotator dependency graph, and the accessibility
// map — is kept once per distinct policy with a reference count, not once
// per user. Equality is decided first by a canonical fingerprint of the
// policy and, when fingerprints differ, by schema-aware mutual containment
// of the rule sets (pattern.ContainsUnderSchema), so /hospital//patient and
// //patient land in the same cohort on a schema where those paths coincide.
// Memory per user is then O(1) amortized, and a shared update re-annotates
// once per affected cohort instead of once per affected user.

// MultiUser manages per-requester policies over one document. All methods
// are safe for concurrent use: requests share a read lock, registration and
// updates take it exclusively.
type MultiUser struct {
	mu     sync.RWMutex
	schema *dtd.Schema
	doc    *xmltree.Document
	users  map[string]*cohort // user name → their policy cohort
	pool   *pool.Pool         // nil forces sequential per-cohort rebuilds

	// cohorts keys each policy-equivalence class by the canonical
	// fingerprint of its optimized read policy; byRaw is the fast path,
	// keyed by the fingerprint of the *unoptimized* policy so repeat
	// registrations of an already-seen policy skip the optimizer entirely.
	cohorts map[string]*cohort
	byRaw   map[string]*cohort
	// share toggles cohort compression; off, every user gets a private
	// cohort (the pre-cohort O(users) behavior, kept as the benchmark and
	// golden-test baseline). seq disambiguates private cohort keys.
	share bool
	seq   uint64
	// totalMarks tracks the aggregate compressed-map size incrementally
	// (atomic: Delete's rebuilds update it from pool workers).
	totalMarks atomic.Int64

	// rebuilds / lookups count accessibility-map recomputations and request
	// access checks; marks gauges the total compressed-map size, usersGauge/
	// cohortsGauge the subject and equivalence-class counts, cohortHits the
	// registrations served by an existing cohort, and dedupGauge the
	// users-per-cohort ratio. All nil (no-op) when metrics are off.
	rebuilds     *obs.Counter
	lookups      *obs.Counter
	cohortHits   *obs.Counter
	marks        *obs.Gauge
	usersGauge   *obs.Gauge
	cohortsGauge *obs.Gauge
	dedupGauge   *obs.Gauge

	// aud, when set, records every Request with the requesting subject
	// stamped — the multi-user feed of the denial forensics. Nil no-ops.
	aud *audit.Log
}

// cohort is one policy-equivalence class: the shared optimized policy, its
// re-annotation machinery, the shared accessibility map, and the number of
// registered users it serves.
type cohort struct {
	key     string   // canonical fingerprint of the optimized read policy
	rawKeys []string // raw fingerprints bound to this cohort (for eviction)
	pol     *policy.Policy
	reann   *Reannotator
	acc     *cam.Map
	refs    int
}

// id renders the short stable identifier of the cohort (an FNV-64a hash of
// the canonical fingerprint), used wherever the full fingerprint would be
// unwieldy (stats, routes, tests).
func (c *cohort) id() string {
	h := fnv.New64a()
	h.Write([]byte(c.key))
	return fmt.Sprintf("%012x", h.Sum64()&0xffffffffffff)
}

// NewMultiUser validates the document against the schema and wraps it.
func NewMultiUser(schema *dtd.Schema, doc *xmltree.Document) (*MultiUser, error) {
	if schema == nil || doc == nil {
		return nil, fmt.Errorf("core: NewMultiUser requires a schema and a document")
	}
	if errs := schema.Validate(doc); len(errs) > 0 {
		return nil, fmt.Errorf("core: document does not conform to schema: %v (and %d more)", errs[0], len(errs)-1)
	}
	return &MultiUser{
		schema:  schema,
		doc:     doc,
		users:   map[string]*cohort{},
		cohorts: map[string]*cohort{},
		byRaw:   map[string]*cohort{},
		share:   true,
		pool:    pool.New(0),
	}, nil
}

// SetMetrics attaches a metrics registry: accessibility-map rebuilds
// (core_multiuser_rebuilds_total), request access-check lookups
// (core_multiuser_lookups_total), the aggregate compressed-map size
// (core_multiuser_cam_marks), the registered subject and cohort counts
// (core_multiuser_users / core_multiuser_cohorts), registrations served by
// an existing cohort (core_multiuser_cohort_hits_total) and the
// users-per-cohort dedup ratio (core_multiuser_dedup_ratio).
func (m *MultiUser) SetMetrics(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.rebuilds, m.lookups, m.cohortHits = nil, nil, nil
		m.marks, m.usersGauge, m.cohortsGauge, m.dedupGauge = nil, nil, nil, nil
		return
	}
	m.rebuilds = reg.Counter("core_multiuser_rebuilds_total")
	m.lookups = reg.Counter("core_multiuser_lookups_total")
	m.cohortHits = reg.Counter("core_multiuser_cohort_hits_total")
	m.marks = reg.Gauge("core_multiuser_cam_marks")
	m.usersGauge = reg.Gauge("core_multiuser_users")
	m.cohortsGauge = reg.Gauge("core_multiuser_cohorts")
	m.dedupGauge = reg.Gauge("core_multiuser_dedup_ratio")
	m.updateGauges()
}

// updateGauges refreshes the population gauges. Caller holds the write
// lock (the gauge types themselves are nil-safe and atomic).
func (m *MultiUser) updateGauges() {
	m.marks.Set(float64(m.totalMarks.Load()))
	m.usersGauge.Set(float64(len(m.users)))
	m.cohortsGauge.Set(float64(len(m.cohorts)))
	if n := len(m.cohorts); n > 0 {
		m.dedupGauge.Set(float64(len(m.users)) / float64(n))
	} else {
		m.dedupGauge.Set(0)
	}
}

// SetParallelism bounds the worker pool Delete fans the per-cohort rebuilds
// out on: 0 selects GOMAXPROCS, 1 forces sequential rebuilds.
func (m *MultiUser) SetParallelism(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n == 1 {
		m.pool = nil
		return
	}
	m.pool = pool.New(n)
}

// SetCohortCompression toggles policy-cohort sharing for subsequent
// registrations. Off, every user gets a private cohort — the O(users)
// pre-cohort behavior the benchmarks and golden tests compare against.
// Already-registered users keep their current placement.
func (m *MultiUser) SetCohortCompression(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.share = on
}

// Document returns the shared protected document.
func (m *MultiUser) Document() *xmltree.Document {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.doc
}

// PolicyFingerprint canonicalizes a policy's read projection into a
// deterministic equality key: the default and conflict-resolution effects
// plus the sorted, de-duplicated `effect resource` lines of the read rules.
// Rule names, declaration order, duplicates and write rules do not
// participate, so any two textual spellings of the same rule set collide —
// the fast path of cohort placement.
func PolicyFingerprint(p *policy.Policy) string {
	lines := make([]string, 0, len(p.Rules))
	seen := map[string]bool{}
	for _, r := range p.Rules {
		if r.Action != policy.ActionRead || r.Resource == nil {
			continue
		}
		l := r.Effect.Word() + " " + r.Resource.String()
		if !seen[l] {
			seen[l] = true
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return "default " + p.Default.Word() + ";conflict " + p.Conflict.Word() + ";" + strings.Join(lines, ";")
}

// equivalentPolicies is the fingerprint fallback: a sound schema-aware test
// that two optimized read policies have the same Table 2 semantics on every
// schema-valid document. It requires identical default and conflict effects
// and mutual per-rule containment within each effect class — every allow
// rule of p contained (under the schema) in some allow rule of q and vice
// versa, and likewise for the deny rules — which proves the allow and deny
// scope unions coincide. Incomplete (a union may cover a rule no single
// rule contains) but never wrong, so cohort sharing stays semantics-exact.
func (m *MultiUser) equivalentPolicies(p, q *policy.Policy) bool {
	if p.Default != q.Default || p.Conflict != q.Conflict {
		return false
	}
	return m.coveredBy(p.Allows(), q.Allows()) && m.coveredBy(q.Allows(), p.Allows()) &&
		m.coveredBy(p.Denies(), q.Denies()) && m.coveredBy(q.Denies(), p.Denies())
}

// coveredBy reports whether every rule of a is contained, under the schema,
// in some single rule of b.
func (m *MultiUser) coveredBy(a, b []policy.Rule) bool {
	for _, ra := range a {
		found := false
		for _, rb := range b {
			if pattern.ContainsUnderSchema(ra.Resource, rb.Resource, m.schema) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// place resolves the cohort a policy belongs to, creating one (optimized
// policy, Reannotator, accessibility map) on first sight. Caller holds the
// write lock; the returned cohort's refcount is NOT yet incremented.
//
// Resolution order: raw fingerprint (no optimizer run), then the canonical
// fingerprint of the optimized policy, then the schema-containment
// equivalence scan, then a fresh cohort.
func (m *MultiUser) place(name string, pol *policy.Policy) (*cohort, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if !m.share {
		read, _ := RemoveRedundant(pol.ForAction(policy.ActionRead))
		reann, err := NewReannotator(read, m.schema)
		if err != nil {
			return nil, err
		}
		m.seq++
		c := &cohort{key: fmt.Sprintf("!user:%s#%d", name, m.seq), pol: read, reann: reann}
		if err := m.rebuild(c); err != nil {
			return nil, err
		}
		m.cohorts[c.key] = c
		return c, nil
	}
	raw := PolicyFingerprint(pol)
	if c := m.byRaw[raw]; c != nil {
		m.cohortHits.Inc()
		return c, nil
	}
	read, _ := RemoveRedundant(pol.ForAction(policy.ActionRead))
	key := PolicyFingerprint(read)
	if c := m.cohorts[key]; c != nil {
		m.bindRaw(raw, c)
		m.cohortHits.Inc()
		return c, nil
	}
	// Fingerprints differ from everything seen; fall back to the decidable
	// semantic test. Sorted key order keeps the scan deterministic.
	keys := make([]string, 0, len(m.cohorts))
	for k := range m.cohorts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := m.cohorts[k]
		if m.equivalentPolicies(read, c.pol) {
			m.bindRaw(raw, c)
			m.cohortHits.Inc()
			return c, nil
		}
	}
	reann, err := NewReannotator(read, m.schema)
	if err != nil {
		return nil, err
	}
	c := &cohort{key: key, pol: read, reann: reann}
	if err := m.rebuild(c); err != nil {
		return nil, err
	}
	m.cohorts[key] = c
	m.bindRaw(raw, c)
	return c, nil
}

// bindRaw records a raw-fingerprint alias for the cohort so the next
// registration of the same textual policy takes the fast path.
func (m *MultiUser) bindRaw(raw string, c *cohort) {
	m.byRaw[raw] = c
	c.rawKeys = append(c.rawKeys, raw)
}

// release drops one reference; a cohort nobody uses is evicted along with
// its raw-fingerprint aliases. Caller holds the write lock.
func (m *MultiUser) release(c *cohort) {
	c.refs--
	if c.refs > 0 {
		return
	}
	delete(m.cohorts, c.key)
	for _, rk := range c.rawKeys {
		if m.byRaw[rk] == c {
			delete(m.byRaw, rk)
		}
	}
	if c.acc != nil {
		m.totalMarks.Add(-int64(c.acc.Size()))
	}
}

// AddUser registers a requester with their policy. The first user of a
// policy pays for optimization, the Reannotator and the accessibility map;
// every policy-equivalent registration after that shares the cohort and
// costs O(1) — one fingerprint and two map entries.
func (m *MultiUser) AddUser(name string, pol *policy.Policy) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.users[name]; dup {
		return fmt.Errorf("core: user %q already registered", name)
	}
	c, err := m.place(name, pol)
	if err != nil {
		return err
	}
	c.refs++
	m.users[name] = c
	m.updateGauges()
	return nil
}

// RemoveUser drops a requester; the last member of a cohort takes the
// cohort's shared state with them.
func (m *MultiUser) RemoveUser(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.users[name]
	if c == nil {
		return
	}
	delete(m.users, name)
	m.release(c)
	m.updateGauges()
}

// ReplaceUserPolicy swaps one requester's policy, splitting their cohort on
// divergence: the user moves to the cohort of the new policy (existing or
// freshly built) while remaining members keep the shared state untouched.
// Replacing with a policy equivalent to the current one is a no-op. On
// error the user keeps their previous policy.
func (m *MultiUser) ReplaceUserPolicy(name string, pol *policy.Policy) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.users[name]
	if old == nil {
		return fmt.Errorf("core: unknown user %q", name)
	}
	c, err := m.place(name, pol)
	if err != nil {
		return err
	}
	if c == old {
		return nil
	}
	c.refs++
	m.users[name] = c
	m.release(old)
	m.updateGauges()
	return nil
}

// Users lists the registered requesters, sorted.
func (m *MultiUser) Users() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.users))
	for u := range m.users {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// UserCount returns the number of registered requesters.
func (m *MultiUser) UserCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.users)
}

// CohortCount returns the number of live policy-equivalence cohorts — the
// factor rebuild work and map storage actually scale with.
func (m *MultiUser) CohortCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.cohorts)
}

// CohortOf returns the short identifier of the requester's cohort; two
// users share state iff their identifiers are equal.
func (m *MultiUser) CohortOf(name string) (string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.user(name)
	if err != nil {
		return "", err
	}
	return c.id(), nil
}

// CohortInfo describes one policy-equivalence cohort.
type CohortInfo struct {
	// ID is the short stable cohort identifier (CohortOf).
	ID string `json:"id"`
	// Members is the number of users sharing the cohort.
	Members int `json:"members"`
	// Marks is the cohort's compressed-map size.
	Marks int `json:"marks"`
	// Rules is the optimized read-rule count.
	Rules int `json:"rules"`
	// Default and Conflict are the policy's Table 2 effects ("+"/"-").
	Default  string `json:"default"`
	Conflict string `json:"conflict"`
}

// MultiUserStats summarizes the cohort compression — the numbers the
// /multiuser route and the dashboard surface.
type MultiUserStats struct {
	Users      int          `json:"users"`
	Cohorts    int          `json:"cohorts"`
	DedupRatio float64      `json:"dedup_ratio"` // users per cohort
	TotalMarks int          `json:"total_marks"`
	CohortList []CohortInfo `json:"cohort_list"` // by members desc, then id
}

// Stats reports the current cohort compression state.
func (m *MultiUser) Stats() MultiUserStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := MultiUserStats{
		Users:      len(m.users),
		Cohorts:    len(m.cohorts),
		TotalMarks: int(m.totalMarks.Load()),
	}
	if s.Cohorts > 0 {
		s.DedupRatio = float64(s.Users) / float64(s.Cohorts)
	}
	for _, c := range m.cohorts {
		info := CohortInfo{
			ID:       c.id(),
			Members:  c.refs,
			Rules:    len(c.pol.Rules),
			Default:  c.pol.Default.String(),
			Conflict: c.pol.Conflict.String(),
		}
		if c.acc != nil {
			info.Marks = c.acc.Size()
		}
		s.CohortList = append(s.CohortList, info)
	}
	sort.Slice(s.CohortList, func(i, j int) bool {
		if s.CohortList[i].Members != s.CohortList[j].Members {
			return s.CohortList[i].Members > s.CohortList[j].Members
		}
		return s.CohortList[i].ID < s.CohortList[j].ID
	})
	return s
}

// rebuild recomputes a cohort's accessibility map from its policy. Safe to
// run concurrently for distinct cohorts (Delete fans it out on the pool):
// it writes only the cohort's own state plus atomic counters.
func (m *MultiUser) rebuild(c *cohort) error {
	acc, err := c.pol.Semantics(m.doc)
	if err != nil {
		return err
	}
	old := 0
	if c.acc != nil {
		old = c.acc.Size()
	}
	c.acc = cam.Build(m.doc, acc, c.pol.Default == policy.Allow)
	m.totalMarks.Add(int64(c.acc.Size() - old))
	m.rebuilds.Inc()
	return nil
}

func (m *MultiUser) user(name string) (*cohort, error) {
	c := m.users[name]
	if c == nil {
		return nil, fmt.Errorf("core: unknown user %q", name)
	}
	return c, nil
}

// SetAudit attaches an audit log: every subsequent Request is recorded
// with the requesting subject stamped on the event (User), feeding the
// per-subject denial forensics. Pass nil to detach.
func (m *MultiUser) SetAudit(l *audit.Log) {
	m.mu.Lock()
	m.aud = l
	m.mu.Unlock()
}

// Request answers a query for one requester with the paper's all-or-nothing
// semantics, checked against the requester's cohort accessibility map.
func (m *MultiUser) Request(user string, q *xpath.Path) (*RequestResult, error) {
	start := time.Now()
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.user(user)
	if err != nil {
		return nil, err
	}
	nodes, err := xpath.Eval(q, m.doc)
	if err != nil {
		m.auditRequestLocked(user, c, q, start, 0, nil, err)
		return nil, err
	}
	m.lookups.Add(int64(len(nodes)))
	for _, n := range nodes {
		if !c.acc.Accessible(n) {
			err := fmt.Errorf("%w: node %d (%s) is not accessible to %s", ErrAccessDenied, n.ID, n.Label, user)
			m.auditRequestLocked(user, c, q, start, len(nodes), n, err)
			return nil, err
		}
	}
	m.auditRequestLocked(user, c, q, start, len(nodes), nil, nil)
	return &RequestResult{Nodes: nodes, Checked: len(nodes)}, nil
}

// auditRequestLocked records one multi-user request outcome. denied is
// the first inaccessible node of a denial (its deciding/losing rules are
// attributed on the fly against the cohort policy); err classifies the
// outcome. Callers hold at least the read lock. No-op without SetAudit.
func (m *MultiUser) auditRequestLocked(user string, c *cohort, q *xpath.Path, start time.Time, matched int, denied *xmltree.Node, err error) {
	if m.aud == nil {
		return
	}
	e := audit.Event{
		Kind:      "request",
		User:      user,
		Backend:   "cam",
		Semantics: semanticsLabel(c.pol),
		Query:     q.String(),
		Matched:   matched,
		Checked:   matched,
		Duration:  time.Since(start),
	}
	switch {
	case err == nil:
		e.Outcome = audit.OutcomeGrant
	case denied != nil:
		e.Outcome = audit.OutcomeDeny
		e.Rules = decideOnFly(c.pol, denied).AttributingRules()
	default:
		e.Outcome = audit.OutcomeError
		e.Err = err.Error()
	}
	m.aud.Record(e)
}

// RequestFiltered returns only the matches accessible to the requester.
func (m *MultiUser) RequestFiltered(user string, q *xpath.Path) (*RequestResult, int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.user(user)
	if err != nil {
		return nil, 0, err
	}
	nodes, err := xpath.Eval(q, m.doc)
	if err != nil {
		return nil, 0, err
	}
	res := &RequestResult{Checked: len(nodes)}
	dropped := 0
	for _, n := range nodes {
		if c.acc.Accessible(n) {
			res.Nodes = append(res.Nodes, n)
			res.IDs = append(res.IDs, n.ID)
		} else {
			dropped++
		}
	}
	return res, dropped, nil
}

// AccessibleIDs returns the requester's accessible element-id set.
func (m *MultiUser) AccessibleIDs(user string) (map[int64]bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.user(user)
	if err != nil {
		return nil, err
	}
	return c.acc.AccessibleIDs(m.doc), nil
}

// MapSize returns the compressed-map mark count of the requester's cohort
// (the storage cost their whole equivalence class shares).
func (m *MultiUser) MapSize(user string) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.user(user)
	if err != nil {
		return 0, err
	}
	return c.acc.Size(), nil
}

// MultiUpdateReport describes one shared delete across all users.
type MultiUpdateReport struct {
	// DeletedNodes counts removed tree nodes.
	DeletedNodes int
	// Reannotated lists the users whose rules triggered (their cohorts'
	// maps were recomputed); everyone else's map was provably unaffected.
	Reannotated []string
	// RebuiltCohorts is the number of accessibility-map recomputations the
	// update actually paid for — with cohort compression, the cost scales
	// with this, not with len(Reannotated).
	RebuiltCohorts int
	// Took is the total wall time.
	Took time.Duration
}

// Delete applies a delete update to the shared document and re-annotates
// only the cohorts whose rules the Trigger algorithm selects — the paper's
// re-annotation optimization lifted to the user dimension, paid once per
// policy-equivalence class instead of once per user.
func (m *MultiUser) Delete(u *xpath.Path) (*MultiUpdateReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	rep := &MultiUpdateReport{}
	// Decide, per cohort, whether any rule triggers — before the update, as
	// Trigger consults only the policy and schema.
	var affected []*cohort
	for _, c := range m.cohorts {
		if len(c.reann.Trigger(u)) > 0 {
			affected = append(affected, c)
		}
	}
	// Sorted key order keeps pool scheduling and first-error deterministic.
	sort.Slice(affected, func(i, j int) bool { return affected[i].key < affected[j].key })
	_, total, err := ApplyDeleteTree(m.doc, u)
	if err != nil {
		return nil, err
	}
	rep.DeletedNodes = total
	// Each rebuild reads the shared tree and writes only its own cohort's
	// map, so the rebuilds fan out on the pool.
	if err := m.pool.ForEach(len(affected), func(i int) error {
		return m.rebuild(affected[i])
	}); err != nil {
		return nil, err
	}
	rep.RebuiltCohorts = len(affected)
	touched := map[*cohort]bool{}
	for _, c := range affected {
		touched[c] = true
	}
	for name, c := range m.users {
		if touched[c] {
			rep.Reannotated = append(rep.Reannotated, name)
		}
	}
	sort.Strings(rep.Reannotated)
	rep.Took = time.Since(start)
	m.updateGauges()
	return rep, nil
}

// RebuildAll recomputes every cohort's accessibility map, fanned out on the
// pool — the worst-case update (every rule triggered), and the workload the
// cohort benchmarks measure: its cost scales with the cohort count, not the
// user count.
func (m *MultiUser) RebuildAll() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	all := make([]*cohort, 0, len(m.cohorts))
	for _, c := range m.cohorts {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	if err := m.pool.ForEach(len(all), func(i int) error {
		return m.rebuild(all[i])
	}); err != nil {
		return err
	}
	m.updateGauges()
	return nil
}

// ExportView materializes one requester's security view of the shared
// document.
func (m *MultiUser) ExportView(user string, mode ViewMode) (*xmltree.Document, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, err := m.user(user)
	if err != nil {
		return nil, err
	}
	return BuildView(m.doc, c.acc.AccessibleIDs(m.doc), mode), nil
}
