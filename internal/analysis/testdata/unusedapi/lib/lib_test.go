package lib

import "testing"

func TestLib(t *testing.T) {
	o := Options{TestSet: 1}
	if TestOnly()+o.TestSet != 3 {
		t.Fatal("lib")
	}
}

func TestReads(t *testing.T) {
	if (Reads{TestRead: 1}).TestRead != 1 {
		t.Fatal("reads")
	}
}
