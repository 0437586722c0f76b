<?php
// 'helper.php' names up/helper.php, which ends in that whole path
// component; myhelper.php only ends in the same letters and never runs.
$f = $_FILES['x'];
include 'helper.php';
