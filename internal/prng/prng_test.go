package prng

import "testing"

// The reference outputs of splitmix64 seeded with 1234567 (Vigna's
// splitmix64.c), so the step cannot drift from the published generator.
func TestMatchesReferenceSplitmix64(t *testing.T) {
	s := New(1234567)
	for i, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821} {
		if got := s.Next(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
	if Mix(1234567) != 6457827717110365317 {
		t.Fatal("Mix(x) is not the first draw of New(x)")
	}
	if u := Unit(^uint64(0)); u >= 1 {
		t.Fatalf("Unit(max) = %v, want < 1", u)
	}
}
