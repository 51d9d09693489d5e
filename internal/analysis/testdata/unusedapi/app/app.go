// Command app is the binary that uses package lib.
package main

import (
	"fmt"

	"fixture/unusedapi/lib"
)

func main() {
	var p lib.Processor = &lib.Upper{N: 1}
	if _, err := p.Process("x"); err != nil {
		return
	}
	o := lib.Options{Set: 1}
	addr := &o.Addr
	fmt.Println(lib.Upper{N: 2}, o.Set, o.TestSet, o.Tagged, *addr, lib.Used())
	lib.Stale()
}
