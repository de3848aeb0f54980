//go:build race

package itemsets

// Race-detector instrumentation slows the DFS several-fold, and with it the
// unwinding after a cancellation; the bound on it is widened by this factor.
const cancelSlack = 10
