//go:build !amd64

package lib

func archName() string { return "other" }
