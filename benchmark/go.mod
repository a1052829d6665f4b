module rtle/benchmark

go 1.23

require rtle v0.0.0

replace rtle => ../
