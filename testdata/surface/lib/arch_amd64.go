package lib

func archName() string { return "amd64" }
