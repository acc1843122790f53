package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The engine registry. Each implementation file registers its opener in
// an init function under the backend names the evaluation figures use;
// core resolves Config.Backend through Open and never names a concrete
// engine package. Registering through the seam is also what makes new
// backends additive: a future engine needs only an Opener and a name.

// Opener builds an engine from options.
type Opener func(Options) (Engine, error)

var (
	regMu sync.RWMutex
	// openers maps every accepted name (canonical and alias) to its
	// constructor; canonicalName maps it to the name Engines lists and
	// Engine.Name reports.
	openers       = map[string]Opener{}
	canonicalName = map[string]string{}
)

// Register installs an engine constructor under a canonical name plus
// optional aliases. It panics on duplicates — registration happens in
// init functions, where a clash is a programming error.
func Register(name string, o Opener, aliases ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, n := range append([]string{name}, aliases...) {
		if _, dup := openers[n]; dup {
			panic(fmt.Sprintf("store: engine name %q registered twice", n))
		}
		openers[n] = o
		canonicalName[n] = name
	}
}

// Open builds the named engine. Both canonical names and aliases resolve
// ("xquery" opens the native engine).
func Open(name string, o Options) (Engine, error) {
	regMu.RLock()
	op := openers[name]
	regMu.RUnlock()
	if op == nil {
		return nil, fmt.Errorf("store: unknown engine %q (registered: %s)", name, strings.Join(Engines(), ", "))
	}
	return op(o)
}

// Engines lists the canonical registered engine names, sorted — the
// iteration domain of the cross-backend equivalence suite.
func Engines() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	seen := map[string]bool{}
	out := make([]string, 0, len(canonicalName))
	for _, c := range canonicalName {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}
