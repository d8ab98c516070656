//go:build !race

package svc

const raceEnabled = false
