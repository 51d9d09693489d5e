// Command app is the binary that uses package lib.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/template"

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

	r := lib.Reads{Selected: 1, Unread: 2, TestRead: 3, Tagged: 4, Via: &lib.Via{}}
	r.Count++
	r.Via.V = 5
	fmt.Println(r.Selected)

	enc := lib.Encoded{
		Ptr:      &lib.Leaf{V: 1},
		List:     []lib.Leaf{{V: 2}},
		ByKey:    map[string]lib.Leaf{"k": {V: 3}},
		Embedded: lib.Embedded{E: 4},
		Skipped:  lib.Hidden{H: 5},
	}
	if err := json.NewEncoder(os.Stdout).Encode(&enc); err != nil {
		return
	}
	page := template.Must(template.New("page").Parse("{{.Title}}"))
	if err := page.Execute(os.Stdout, lib.Page{Title: "t"}); err != nil {
		return
	}
	seen := map[lib.Key]bool{{A: 1, B: 2}: true}
	fmt.Println(len(seen), lib.Point{X: 1, Y: 2} == lib.Point{X: 1})
}
