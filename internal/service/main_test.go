package service

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"segrid/internal/grid"
)

// TestMain runs the service suite, then checks that it left the shared
// built-in cases intact: grid.Case hands one System per case to every
// request, so a request that edited its network would corrupt the others.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := sharedCasesIntact(); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// sharedCasesIntact compares the cases the suite solves on with fresh
// builds.
func sharedCasesIntact() error {
	ieee57, err := grid.Synthetic("ieee57", 57, 80, 57)
	if err != nil {
		return err
	}
	for name, fresh := range map[string]*grid.System{"ieee14": grid.IEEE14(), "ieee30": grid.IEEE30(), "ieee57": ieee57} {
		shared, err := grid.Case(name)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(shared, fresh) {
			return fmt.Errorf("after the service suite, shared case %s differs from a fresh build", name)
		}
	}
	return nil
}
