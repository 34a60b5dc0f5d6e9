package clock

import (
	"testing"
	"time"
)

func TestFixed(t *testing.T) {
	at := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	f := Fixed(at)
	if got := f(); !got.Equal(at) {
		t.Fatalf("Fixed = %v, want %v", got, at)
	}
	if got := f(); !got.Equal(at) {
		t.Fatalf("Fixed moved on second read: %v", got)
	}
}

func TestOrWall(t *testing.T) {
	at := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	if got := OrWall(Fixed(at))(); !got.Equal(at) {
		t.Fatalf("OrWall(Fixed) = %v, want %v", got, at)
	}
	before := time.Now()
	got := OrWall(nil)()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("OrWall(nil) = %v, want within [%v, %v]", got, before, after)
	}
}
