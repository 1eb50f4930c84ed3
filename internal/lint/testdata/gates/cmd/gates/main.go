package main

import (
	"fmt"

	"gates/internal/a"
)

func other() *a.Other { return new(a.Other) }

func main() {
	var s a.Sizer = &a.Queue{}
	o := other()
	o.Mode = 3
	c := a.NewConfig()
	c.Depth = 4
	fmt.Println(a.Box{}.Size(), s != nil, o, c)
}
