//go:build race

package core

// raceEnabled: the race detector runs the single-goroutine Result matrices
// (TestExecSizeOnlyMatchesExec, TestDecompressPlannedMatchesDecompress) about
// ten times slower and finds nothing in them, so under it their 1 MiB
// payloads run only on the configurations the ordinary pass cannot skip.
const raceEnabled = true
