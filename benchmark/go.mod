module cohera/benchmark

go 1.22

require cohera v0.0.0

replace cohera => ../
