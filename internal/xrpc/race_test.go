//go:build race

package xrpc

// raceBuild reports a binary built with the race detector, which allocates
// on paths that otherwise do not: allocation ceilings pin both counts.
const raceBuild = true
