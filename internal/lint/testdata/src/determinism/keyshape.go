package determinism

import "ysmart/internal/lint/testdata/src/determinism/keys"

// renderKey prints a key through a String method declared outside the
// replayed scope; that method emits in map order, so the call is flagged
// here, where replayed code reaches it.
func renderKey(k keys.Key) string {
	return k.String() // want "call to keys.Key.String reaches unsorted map-range emission via keys.Key.String -> keys.Component.String"
}
