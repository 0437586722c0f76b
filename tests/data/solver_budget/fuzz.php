<?php
$v3 = strtolower(strtolower($v2));
switch ($v0) {
case 0:
    $v2 = strlen('s3');
break;
case 1:
    $v1 = 's1' . 32;
break;
default:
    $v0 = $_POST['p0'] + $_FILES['f']['name'];
}
switch ($v4) {
case 0:
    $v3 = strlen($v1);
break;
case 1:
    $v4 = isset($v2);
break;
case 2:
    $v5 = strtolower('s5');
break;
default:
    $v3 = isset($v2);
}
function gen_fn_170($p) {
    return $p . '-x';
}
$v4 = gen_fn_170(isset($v5));
if (isset($v5)) {
while ($v1 + $_FILES['f']['name']) {
    $v5 = strlen(30);
}
} else {
$v0 = ((99 ? $_FILES['f']['name'] : $_FILES['f']['name']) ? $v2 . 's1' : strtolower('s5'));
}
$v3 = strtolower(($_POST['p0'] ? 92 : $_POST['p0']));
switch ($v5) {
case 0:
    $v5 = ($v4 ? 's3' : 's0');
break;
case 1:
    $v5 = strlen(58);
break;
default:
    $v4 = ($_FILES['f']['name'] ? $_POST['p1'] : $v0);
}
function gen_fn_301($p) {
    return $p . '-x';
}
$v1 = gen_fn_301(($_FILES['f']['name'] ? $_FILES['f']['name'] : $_FILES['f']['name']));
while (strtolower('s8')) {
foreach (array(1, 2, 3) as $it) {
    $v2 = strtolower(36);
}
}
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
