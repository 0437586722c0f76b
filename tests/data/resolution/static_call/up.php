<?php
// A static method call runs the method's own body: the call graph and
// the interpreter both resolve Up::save to Up's declaration.
class Up {
    static function save($f) {
        move_uploaded_file($f['tmp_name'], '/var/www/uploads/' . $f['name']);
    }
}
Up::save($_FILES['x']);
