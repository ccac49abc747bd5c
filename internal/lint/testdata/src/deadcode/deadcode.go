// Package deadcode exercises the deadcode analyzer: exported names that no
// non-test file of the module uses are findings, unless a reasoned
// //lint:allow directive marks them as a deliberate test seam or oracle.
package deadcode

import "sort"

// Used is live: Names.Longest calls it.
func Used(s string) int { return len(s) }

// Unused has no caller anywhere.
func Unused() int { return 2 } // want `exported func deadcode\.Unused has no use`

// Limit is never read.
const Limit = 8 // want `exported const deadcode\.Limit has no use`

// Registry is never read.
var Registry = map[string]int{} // want `exported var deadcode\.Registry has no use`

// Orphan is never named.
type Orphan struct{} // want `exported type deadcode\.Orphan has no use`

// Names is live: sortNames converts to it. Len, Less and Swap share their
// names with sort.Interface's methods, so they are live although nothing
// calls them by name.
type Names []string

func (n Names) Len() int           { return len(n) }
func (n Names) Less(i, j int) bool { return n[i] < n[j] }
func (n Names) Swap(i, j int)      { n[i], n[j] = n[j], n[i] }

// Longest is a method nothing calls and no interface declares.
func (n Names) Longest() string { // want `exported method deadcode\.Names\.Longest has no use`
	best := ""
	for _, s := range n {
		if Used(s) > Used(best) {
			best = s
		}
	}
	return best
}

// Oracle stands in for a reference implementation only tests compare
// against; the directive keeps it and names the test.
//
//lint:allow deadcode fixture: stands in for an oracle TestOracle compares against
func Oracle() int { return 3 }

func sortNames(s []string) { sort.Sort(Names(s)) }
