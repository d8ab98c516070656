module mpsnap/benchmark

go 1.22

require mpsnap v0.0.0

replace mpsnap => ../
