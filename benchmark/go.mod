module exploitbit/benchmark

go 1.22

require exploitbit v0.0.0

replace exploitbit => ../
