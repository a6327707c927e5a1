//go:build race

package sat

func init() { raceEnabled = true }
