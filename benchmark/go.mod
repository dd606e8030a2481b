module ffc/benchmark

go 1.22

require ffc v0.0.0

replace ffc => ../
