//go:build !race && !noscratch

package core_test

// scratchPooled reports that solve scratch is recycled through
// sync.Pool reliably: off under -tags noscratch (no pools) and under
// -race (sync.Pool drops a fraction of Puts at random), where
// allocation gates cannot hold.
const scratchPooled = true
