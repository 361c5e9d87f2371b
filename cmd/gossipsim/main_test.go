package main

import "testing"

func TestRunModes(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "1", "-n", "4", "-maxcalls", "4", "-conv", "co"},
		{"-seed", "1", "-n", "3", "-maxcalls", "3", "-conv", "all"},
		{"-seed", "1", "-n", "4", "-maxcalls", "4", "-conv", "lns", "-reveal", "-perlink", "4"},
		{"-seed", "1", "-n", "4", "-maxcalls", "4", "-conv", "co", "-reveal",
			"-calls", "ab.cd.ac.bd"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-conv", "bogus"},
		{"-reveal"},
		{"-n", "1"},
		{"-conv", "co", "-maxcalls", "4", "-reveal", "-calls", "zz"},
		{"-badflag"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
