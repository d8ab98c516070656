//go:build !race

package eqaso_test

const raceEnabled = false
