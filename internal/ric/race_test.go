//go:build race

package ric

func init() { raceEnabled = true }
