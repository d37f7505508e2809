// The benchmark is a module of its own because the contract it is written to
// asks for one: a benchmark that has to be compiled is a package of its own
// in the benchmark's directory, with its own build file, and the change that
// adds it touches no file outside that directory (README.md, "Departures").
// It reaches the program's packages through the replace below; the module
// path keeps it inside repro's internal/ visibility.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
