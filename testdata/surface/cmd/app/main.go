package main

import (
	"fmt"

	"surfacefix/lib"
)

func main() {
	var n lib.Namer = lib.Impl{}
	fmt.Println(lib.Live{}.Get(), lib.Dead{}, n.Name())
}
