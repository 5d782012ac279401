// Package keys sits outside the replayed scope, like internal/plan: it is
// never vetted itself, so an unsorted map range here shows up only where
// replayed code calls into it.
package keys

import "strings"

// Component is a set of column names, printed as {a=b}.
type Component map[string]bool

// String ranges the set in map order and never sorts what it collected.
func (c Component) String() string {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	return "{" + strings.Join(names, "=") + "}"
}

// Key is a list of components.
type Key []Component

// String joins its components' renderings.
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, c := range k {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}
