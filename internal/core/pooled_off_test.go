//go:build race || noscratch

package core_test

// scratchPooled: see pooled_on_test.go.
const scratchPooled = false
