module optchain/benchmark

go 1.24

require optchain v0.0.0

replace optchain => ../
