package translator

// ArtifactsComputed reports whether tr's artifacts have been computed, for
// the tests that drive translations through the server's plan cache. Call it
// only once every goroutine that may compute them has finished.
func ArtifactsComputed(tr *Translation) bool { return tr.fp != nil && tr.fp.artifacts != nil }
