//go:build race

package comp

// poolDropsPuts: a race-enabled sync.Pool discards a random quarter of its
// Puts, so how many one-shot calls find a pooled Coder is not fixed.
const poolDropsPuts = true
