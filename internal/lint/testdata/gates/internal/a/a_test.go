package a

import "testing"

func TestSizes(t *testing.T) {
	var s Sizer = &Queue{items: []int{1}}
	if s.Len()+(Bag{}).Size() != 3 {
		t.Fatal("sizes")
	}
}
