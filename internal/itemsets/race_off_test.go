//go:build !race

package itemsets

// cancelSlack widens the cancellation-latency bound of
// TestMaximalDFSCancelReturnsAtOnce; uninstrumented builds keep it as is.
const cancelSlack = 1
