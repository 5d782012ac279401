//go:build race

package server

// Under the race detector sync.Pool drops items at random (fmt's printers
// among them), so allocation counts are not repeatable: budgets skip.
func init() { raceEnabled = true }
