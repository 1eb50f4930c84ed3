// Package a holds the cases that the typed test-only and one-value gates
// flag and a gate matching names would miss.
package a

// Box and Bag share the method name Size. Non-test code calls Box's only.
type Box struct{}

func (Box) Size() int { return 1 }

type Bag struct{}

func (Bag) Size() int { return 2 }

// Sizer's Len is called only by tests; non-test code names the interface
// without calling it, so neither Sizer.Len nor Queue.Len is used.
type Sizer interface{ Len() int }

type Queue struct{ items []int }

func (q *Queue) Len() int { return len(q.items) }

// Config.Mode is written only by its constructor. Other has a field of the
// same name, which non-test code sets through a value whose type only
// go/types can tell.
type Config struct {
	Mode  int
	Depth int
}

func NewConfig() Config { return Config{Mode: 1, Depth: 2} }

type Other struct{ Mode int }
