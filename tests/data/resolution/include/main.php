<?php
// 'upload.php' names both a/upload.php and b/upload.php; the first in
// file-name order, a/upload.php, runs, whatever the directory order.
$f = $_FILES['x'];
include 'upload.php';
