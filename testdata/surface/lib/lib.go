// Package lib is the fixture of TestSurfacePassResolvesTypes.
package lib

// Live's Get is called by the program.
type Live struct{}

func (Live) Get() string { return "live on " + archName() }

// Dead is used, but its Get, which shares its name with Live's, is not.
type Dead struct{}

func (Dead) Get() string { return "dead" }

// Namer is how the program reaches Impl's Name.
type Namer interface{ Name() string }

type Impl struct{}

func (Impl) Name() string { return "impl" }
