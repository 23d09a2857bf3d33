//go:build !race

package comp

const poolDropsPuts = false
